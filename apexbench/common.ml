(* Shared plumbing for the workloads: clocks, order statistics, peak
   RSS, the benchmark's own span recorder, readers for the program's
   telemetry registry, and the result record the harness prints. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics --- *)

let sorted xs = List.sort Float.compare xs

(* nearest-rank percentile, the rule the program's own reports use *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "percentile: no samples"
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      List.nth s (max 1 (min n rank) - 1)

let median xs =
  match sorted xs with
  | [] -> invalid_arg "median: no samples"
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean: no samples"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- memory --- *)

(* VmHWM (peak resident set) of a live process, in MB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
  in
  scan ()

let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* --- scratch directories --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh, empty artifact store for one pass: the cold runs the
   workloads time start with nothing on disk.  Outside such a pass the
   store is off. *)
let with_fresh_store dir f =
  rm_rf dir;
  Apex_exec.Store.set_enabled true;
  Apex_exec.Store.set_dir dir;
  Fun.protect f ~finally:(fun () ->
      Apex_exec.Store.set_enabled false;
      rm_rf dir)

(* Empty in-process variant and analysis memos, so no pass reuses
   another pass's artifacts. *)
let with_cold_memos f =
  Apex.Dse.with_local_memo @@ fun () -> Apex.Variants.with_local_memo f

(* --- the benchmark's own spans --- *)

(* One record per occurrence of a call into a layer's public entry
   point, kept in memory in flow order and written out at the end of a
   traced run.  [alloc_w] is the words the call allocated
   (Gc.allocated_bytes delta). *)
type span = {
  id : int;
  parent : int;  (** 0 = top level *)
  name : string;
  t0 : float;
  t1 : float;
  alloc_w : float;
}

let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let a0 = allocated_words () in
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      let alloc_w = allocated_words () -. a0 in
      stack := List.tl !stack;
      spans := { id; parent; name; t0; t1; alloc_w } :: !spans)

(* the spans recorded by [f], in flow order *)
let recording f =
  spans := [];
  let r = f () in
  let recorded = List.rev !spans in
  spans := [];
  (r, recorded)

(* write the recorded spans out, one JSON object per line *)
let write_spans path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.6f, \
         \"end_s\": %.6f, \"alloc_words\": %.0f}\n"
        s.id s.parent s.name s.t0 s.t1 s.alloc_w)
    spans

(* --- the program's telemetry reports --- *)

(* The program's own spans and counters, read from its JSON telemetry
   report (Report.to_json): the in-process workloads snapshot the
   registry after a traced pass, the daemon embeds one report in every
   response.  Span nodes aggregate by path: name, count, total_ms, gc
   words and children. *)

module Json = Apex_telemetry.Json

let num j key =
  match Json.member key j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let children j =
  match Json.member "children" j with Some (Json.List l) -> l | _ -> []

let span_name j =
  match Json.member "name" j with Some (Json.String s) -> s | _ -> ""

let span_words j =
  match Json.member "gc" j with
  | Some g -> num g "minor_words" +. num g "major_words"
  | None -> 0.0

let root report = Option.value ~default:Json.Null (Json.member "spans" report)

type tot = { ms : float; words : float; n : int }

let zero = { ms = 0.0; words = 0.0; n = 0 }
let add a b = { ms = a.ms +. b.ms; words = a.words +. b.words; n = a.n + b.n }

(* Totals over the nodes whose name satisfies [p].  A match's own
   subtree is not searched again, so nested same-name spans count once. *)
let rec span_total p node =
  if p (span_name node) then
    { ms = num node "total_ms"; words = span_words node;
      n = int_of_float (num node "count") }
  else
    List.fold_left (fun acc c -> add acc (span_total p c)) zero (children node)

(* the same, restricted to matches below a node satisfying [under] *)
let rec span_total_under ~under p node =
  if under (span_name node) then span_total p node
  else
    List.fold_left
      (fun acc c -> add acc (span_total_under ~under p c))
      zero (children node)

(* the benchmark's own spans named [name], as a [tot] *)
let bench spans name =
  List.fold_left
    (fun acc sp ->
      if sp.name = name then
        add acc { ms = 1e3 *. (sp.t1 -. sp.t0); words = sp.alloc_w; n = 1 }
      else acc)
    zero spans

(* Self time of every node matching [p]: its total minus its children's. *)
let rec self_ms p node =
  let kids = children node in
  let own =
    if p (span_name node) then
      num node "total_ms" -. sum (List.map (fun c -> num c "total_ms") kids)
    else 0.0
  in
  own +. sum (List.map (self_ms p) kids)

let counter report name =
  match Json.member "counters" report with
  | Some c -> int_of_float (num c name)
  | None -> 0

let sum_reports f reports =
  List.fold_left (fun acc r -> add acc (f (root r))) zero reports

let sum_counter name reports =
  List.fold_left (fun acc r -> acc + counter r name) 0 reports

let named n s = String.equal n s
let is_variant s = String.starts_with ~prefix:"variant:" s

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* --- per-layer metrics --- *)

(* Where the layer figures come from (README "Per-layer metrics"):

   - [bench]: spans the benchmark records around the layer entry points
     it calls itself (cover, place, route, pipelining on cold-suite);
   - the program's own spans in [reports] for layers reachable only
     through another (mining and MIS inside Variants.analysis_of,
     merging and rules inside variant construction, the pe_spec climb's
     scoring maps) and, on serve-mixed, for everything;
   - configspace: the self time of the program's "variant:*" spans,
     i.e. variant construction minus its instrumented children;
   - work counts: the program's counters.

   Every busy/alloc/count figure is per pass of the workload's job set. *)
type layer_inputs = {
  reports : Json.t list;  (** the program's telemetry reports *)
  spans : span list;  (** the benchmark's own spans *)
  passes : float;  (** job-set passes the reports cover *)
  direct : bool;  (** cover/place/route/pipelining were called directly *)
  failed_ratio : float;
  overhead_s : float;  (** traced minus untraced wall_s *)
  nonexact : int;  (** self-check: figures that differed between passes *)
  serve : (string * float) list;  (** serve.* figures; absent = 0 *)
}

let layer_metrics li =
  let per x = x /. li.passes in
  let ms t = per t.ms and mw t = per (1e-6 *. t.words) in
  let prog p = sum_reports (span_total p) li.reports in
  let c name = sum_counter name li.reports in
  let cf name = per (float_of_int (c name)) in
  let mapping =
    if li.direct then
      (* the bench maps every pair itself; the program's "mapping"
         spans left over are the pe_spec climb's scoring maps *)
      add (bench li.spans "cover")
        (sum_reports (span_total_under ~under:is_variant (named "mapping"))
           li.reports)
    else prog (named "mapping")
  in
  let place = if li.direct then bench li.spans "place" else prog (named "pnr") in
  let route = if li.direct then bench li.spans "route" else zero in
  let pipelining =
    if li.direct then bench li.spans "pipelining" else prog (named "pipelining")
  in
  let mining = prog (named "mining") in
  let configspace =
    per (sum (List.map (fun r -> self_ms is_variant (root r)) li.reports))
  in
  let hits = c "exec.cache_hits" and misses = c "exec.cache_misses" in
  let memo_hits = c "dse.memo_hits" in
  let serve k = Option.value ~default:0.0 (List.assoc_opt k li.serve) in
  [ m "mining.busy_ms" "ms" (ms mining);
    m "mining.alloc_mw" "Mw" (mw mining);
    m "mining.embeddings" "count" (cf "mining.embeddings_enumerated");
    m "mining.patterns" "count" (cf "mining.patterns_grown");
    m "mis.busy_ms" "ms" (ms (prog (named "mis")));
    m "merging.busy_ms" "ms" (ms (prog (named "merging")));
    m "merging.merges" "count" (cf "merging.merges");
    m "merging.opportunities" "count" (cf "merging.opportunities");
    m "configspace.busy_ms" "ms" configspace;
    m "configspace.proofs" "count" (cf "analysis.configspace.proofs_proved");
    m "configspace.pruned_nodes" "count" (cf "analysis.configspace.pruned_nodes");
    m "rules.busy_ms" "ms" (ms (prog (named "rules")));
    m "smt.solver_calls" "count" (cf "smt.solver_calls");
    m "rules.verified_ratio" "ratio" (ratio (c "rules.verified") (c "rules.attempted"));
    m "cover.busy_ms" "ms" (ms mapping);
    m "cover.alloc_mw" "Mw" (mw mapping);
    m "cover.calls" "count" (cf "mapper.map_app_calls");
    m "cover.attempts" "count" (cf "mapper.cover_attempts");
    m "cover.accept_ratio" "ratio"
      (ratio (c "mapper.matches_accepted") (c "mapper.cover_attempts"));
    m "place.busy_ms" "ms" (ms place);
    m "place.alloc_mw" "Mw" (mw place);
    m "place.calls" "count" (per (float_of_int place.n));
    m "route.busy_ms" "ms" (ms route);
    m "route.alloc_mw" "Mw" (mw route);
    m "pipelining.busy_ms" "ms" (ms pipelining);
    m "pipelining.regs_inserted" "count" (cf "pipelining.regs_inserted");
    m "store.hits" "count" (cf "exec.cache_hits");
    m "store.misses" "count" (cf "exec.cache_misses");
    m "store.hit_ratio" "ratio" (ratio hits (hits + misses));
    m "store.bytes_read" "bytes" (cf "exec.cache_bytes_read");
    m "store.bytes_written" "bytes" (cf "exec.cache_bytes_written");
    m "dse.memo_hit_ratio" "ratio" (ratio memo_hits (memo_hits + c "dse.memo_misses"));
    m "dse.pairs_resumed" "count" (cf "dse.pairs_resumed");
    m "serve.wait_ms" "ms" (serve "serve.wait_ms");
    m "serve.service_ms" "ms" (serve "serve.service_ms");
    m "serve.rejected" "count" (serve "serve.rejected");
    m "serve.journal_appends" "count" (serve "serve.journal_appends");
    m "serve.journal_bytes" "bytes" (serve "serve.journal_bytes");
    m "failed_ratio" "ratio" li.failed_ratio;
    m "trace.overhead_s" "s" li.overhead_s;
    m "selfcheck.nonexact" "count" (float_of_int li.nonexact) ]

(* --- results --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** printed with --trace 0 *)
  layer : metric list;  (** printed with --trace 1 *)
}

let json_number v =
  match Float.classify_float v with
  | FP_nan | FP_infinite -> invalid_arg "metric value is not finite"
  | _ -> Printf.sprintf "%.17g" v

let result_line r ~trace =
  let metrics = if trace then r.layer else r.e2e in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_number x.value) x.unit)
          metrics))

let log fmt = Printf.printf (fmt ^^ "\n%!")

let seconds_list xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs)

(* --- running a workload --- *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured window *)
  trace : bool;
  workdir : string;  (** scratch space inside the checkout *)
  apex : string;  (** the built `apex` CLI *)
}

(* stdout of a child process; fails unless it exits 0 *)
let run_capture prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

(* --- CPU placement --- *)

(* The vCPUs of the host this benchmark was written on slow down
   independently of each other, for seconds to minutes at a time (a
   fixed loop pinned to each shows it).  So the timed work takes turns
   on the CPUs this process may use: an in-process workload moves to
   the next CPU before every pass, the serve daemon every
   [rotate_every_s].  Each pass or epoch then runs on one known CPU,
   whose speed the probe below measures, and a run samples every CPU. *)

(* "Cpus_allowed_list" of /proc/self/status, e.g. "0-1,4", and the CPUs
   it names *)
let allowed_cpus =
  lazy
    (let line =
       In_channel.with_open_text "/proc/self/status" In_channel.input_lines
       |> List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:")
     in
     match line with
     | None -> ("", [])
     | Some l ->
         let spec = String.trim (List.nth (String.split_on_char ':' l) 1) in
         let range r =
           match String.split_on_char '-' r with
           | [ a ] -> [ int_of_string a ]
           | [ a; b ] ->
               List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
           | _ -> []
         in
         (spec, List.concat_map range (String.split_on_char ',' spec)))

(* pin every thread of [pid] to the CPUs [cpus] names, with taskset(1) *)
let pin pid cpus =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  match
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int pid |]
      Unix.stdin null null
  with
  | child -> snd (Unix.waitpid [] child) = Unix.WEXITED 0
  | exception Unix.Unix_error _ -> false

let turn = ref 0

(* move [pid] to the next allowed CPU and return it; None when it
   cannot be moved *)
let next_cpu pid =
  match snd (Lazy.force allowed_cpus) with
  | [] | [ _ ] -> None
  | cpus ->
      let cpu = List.nth cpus (!turn mod List.length cpus) in
      incr turn;
      if pin pid (string_of_int cpu) then Some cpu else None

(* give [pid] back every allowed CPU *)
let unpin pid =
  let spec, _ = Lazy.force allowed_cpus in
  if spec <> "" then ignore (pin pid spec : bool)

(* --- CPU speed --- *)

(* Rotation alone does not remove the host's swings: both vCPUs also
   drift together, by up to 2x within ten minutes (a cold-suite pass
   took 2.1 s and 4.1 s in consecutive runs).  So the end-to-end timings
   are scaled to a reference CPU speed, measured on the CPU the timed
   work ran on: [probe ()] is the CPU time of a fixed piece of OCaml
   work written here (maps, hash tables, strings: allocation and
   pointer chasing, like the program), fastest of two.  A timing [t]
   measured where the probe read [p] is reported as
   [t *. probe_reference_s /. p], where [probe_reference_s] is about the
   probe's fastest reading on the build host, so the scaled figures are
   close to, or somewhat below, the raw ones.  The probe does not depend on the program, so a
   change to the program moves the scaled figures as much as the raw
   ones; the logs print the raw figures and the factors. *)
let probe_reference_s = 0.022

let reference_work () =
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 30_000 do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  let h = Hashtbl.create 16 in
  M.iter (fun k v -> Hashtbl.replace h (k land 0xffff) (string_of_int v)) !m;
  ignore (Sys.opaque_identity (Hashtbl.length h))

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime

let probe () =
  List.fold_left Float.min infinity
    (List.init 2 (fun _ ->
         let c0 = cpu_time () in
         reference_work ();
         cpu_time () -. c0))

let speed_factor probe_s = probe_reference_s /. probe_s

(* [probe ()] in a child process pinned to [cpu] (unpinned when None),
   while this process's threads go on *)
let probe_on cpu =
  let self = Sys.executable_name in
  let out =
    match cpu with
    | Some c -> run_capture "taskset" [ "-c"; string_of_int c; self; "--probe" ]
    | None -> run_capture self [ "--probe" ]
  in
  float_of_string (String.trim out)

let rotate_every_s = 1.5

(* [f ()] while another thread moves [pid] to the next CPU every
   [rotate_every_s] and probes that CPU's speed; also returns the
   epochs, (start time, speed factor), in time order *)
let rotating pid f =
  let stop = Atomic.make false in
  let epochs = ref [] in
  let mover =
    Thread.create
      (fun () ->
        let last = ref neg_infinity in
        while not (Atomic.get stop) do
          if now () -. !last >= rotate_every_s then begin
            last := now ();
            let cpu = next_cpu pid in
            epochs := (now (), speed_factor (probe_on cpu)) :: !epochs
          end;
          Thread.delay 0.05
        done)
      ()
  in
  let r =
    Fun.protect f ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join mover;
        unpin pid)
  in
  (r, List.rev !epochs)

(* the speed factor of the epoch that holds time [t] *)
let factor_at epochs t =
  match epochs with
  | [] -> invalid_arg "factor_at: no epochs"
  | (_, f0) :: _ ->
      List.fold_left (fun acc (t0, f) -> if t0 <= t then f else acc) f0 epochs

(* Run [f] back to back until [seconds] have elapsed, at least once,
   each run on the next CPU (see above). *)
let for_seconds seconds f =
  let self = Unix.getpid () in
  let start = now () in
  let rec go acc =
    ignore (next_cpu self : int option);
    let acc = f () :: acc in
    if now () -. start >= seconds then List.rev acc else go acc
  in
  Fun.protect ~finally:(fun () -> unpin self) (fun () -> go [])

(* The same for timed passes: each result comes with the speed factor
   of its CPU, from a probe just before and just after it.  The probe
   runs in a child process, so its allocation stays out of the peak RSS
   the in-process workloads report. *)
let measured_passes seconds f =
  let self = Unix.getpid () in
  let start = now () in
  let rec go acc =
    let cpu = next_cpu self in
    let before = probe_on cpu in
    let r = f () in
    let acc = (speed_factor ((before +. probe_on cpu) /. 2.0), r) :: acc in
    if now () -. start >= seconds then List.rev acc else go acc
  in
  Fun.protect ~finally:(fun () -> unpin self) (fun () -> go [])

(* Set-up timing.  Lowering the applications takes milliseconds and its
   duration swings with the state of the host, so the in-process
   workloads lower them afresh [setup_per_pass] times at the start of
   every pass and report the median of all those samples, each scaled
   by its pass's speed factor: many samples, spread over the whole run.
   [lower ()] returns the lowered apps; [setup_s factors] takes one
   factor per [lower ()] call, in call order. *)
let setup_per_pass = 9

let setup_sampler setup =
  let batches = ref [] in
  let lower () =
    let runs = List.init setup_per_pass (fun _ -> time setup) in
    batches := List.map snd runs :: !batches;
    fst (List.hd runs)
  in
  let setup_s factors =
    median
      (List.concat
         (List.map2 (fun f b -> List.map (( *. ) f) b) factors (List.rev !batches)))
  in
  (lower, setup_s)

(* Determinism self-check: the names whose values differ between any
   two of the per-pass figure lists. *)
let nonexact = function
  | [] -> []
  | first :: rest ->
      List.filter_map
        (fun (name, v) ->
          if List.for_all (fun l -> List.assoc_opt name l = Some v) rest then None
          else Some name)
        first

(* figures the self-check expects to repeat exactly: counts, ratios of
   counts and allocated words, not times *)
let exact_candidates metrics =
  List.filter_map
    (fun x ->
      if List.mem x.unit [ "ms"; "s" ] then None else Some (x.name, x.value))
    metrics

(* Log the self-check and return the non-exact names. *)
let self_check per_pass =
  let unstable = nonexact per_pass in
  log "self-check over %d passes: non-exact figures: [%s]"
    (List.length per_pass)
    (String.concat "; "
       (List.map
          (fun name ->
            Printf.sprintf "%s = %s" name
              (String.concat " / "
                 (List.map
                    (fun l -> Printf.sprintf "%.6g" (List.assoc name l))
                    per_pass)))
          unstable));
  unstable

(* --- output checks --- *)

let vectors_per_pair = 32

(* Does a mapped application compute what the reference interpreter
   computes?  [vectors_per_pair] random input vectors drawn from
   (seed, index). *)
let cover_matches ~seed ~index (v : Apex.Variants.t) (app : Apex_halide.Apps.t)
    mapped =
  let rng = Random.State.make [| seed; index |] in
  let graph = app.Apex_halide.Apps.graph in
  let ok =
    List.for_all
      (fun _ ->
        let env = Apex_dfg.Interp.random_env rng graph in
        match Apex_mapper.Cover.run mapped v.dp env with
        | got ->
            List.sort compare got
            = List.sort compare (Apex_dfg.Interp.run graph env)
        | exception _ -> false)
      (List.init vectors_per_pair Fun.id)
  in
  if not ok then
    log "validation: %s on %s mismatches the interpreter" app.name v.name;
  ok
