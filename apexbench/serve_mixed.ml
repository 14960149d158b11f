(* serve-mixed: a closed loop against an `apex serve` daemon running as
   its own process, with a journal and jobs = 2, driven by two tenants
   with one connection each and no think time.  Set-up starts the
   daemon and warms each tenant's store namespace; the seeded stream
   then replays a fixed deck of dse/map/analyze/configspace/lint/mine
   jobs over the twelve applications, shuffled per round.  A stated
   share of the deck is cold: those jobs go out under a one-shot tenant
   whose namespace was never warmed, so the store is written as well as
   read.  Mapping/PnR of the warmed DSE pairs are store hits here, so
   cache-tier, admission and journal costs show on this workload and
   not on the other two. *)

open Common
module Jobs = Apex.Jobs
module Proto = Apex_serve.Proto
module Client = Apex_serve.Client

type entry = { job : Jobs.t; cold : bool }

let warm job = { job; cold = false }
let cold job = { job; cold = true }
let dse app = warm (Jobs.Dse { apps = [ app ]; variants = [] })
let map ?(c = warm) app variant = c (Jobs.Map { app; variant })

(* The deck: every application appears; the cold entries map onto
   variants that need no mining (PE Base, PE 1), so mining stays a
   store hit throughout the measured window. *)
let deck =
  [ dse "gaussian"; dse "unsharp"; dse "resnet"; dse "mobilenet";
    map "laplacian" "spec:laplacian"; map "sobel" "spec:sobel";
    map "resize" "spec:resize"; map "stereo" "spec:stereo";
    warm (Jobs.Analyze { apps = [ "gaussian" ] });
    warm (Jobs.Analyze { apps = [ "median3" ] });
    warm (Jobs.Analyze { apps = [ "fast" ] });
    warm (Jobs.Configs { apps = [ "unsharp" ] });
    warm (Jobs.Configs { apps = [ "mobilenet" ] });
    warm (Jobs.Configs { apps = [ "laplacian" ] });
    warm (Jobs.Lint { apps = [ "gaussian" ] });
    warm (Jobs.Lint { apps = [ "resize" ] });
    warm (Jobs.Mine { app = "camera"; top = 5 });
    warm (Jobs.Mine { app = "harris"; top = 5 });
    warm (Jobs.Mine { app = "stereo"; top = 5 });
    warm (Jobs.Mine { app = "sobel"; top = 5 });
    map ~c:cold "median3" "base"; map ~c:cold "sobel" "pe1:sobel";
    map ~c:cold "resize" "pe1:resize" ]

let deck_len = List.length deck
let clients = 2

(* the job's wire spec on one line *)
let job_key job =
  String.concat ""
    (List.map String.trim
       (String.split_on_char '\n' (Json.to_string (Jobs.to_json job))))

(* --- the daemon --- *)

type daemon = { pid : int; socket : string; journal : string; trace : string }

let start_daemon ctx =
  let path f = Filename.concat ctx.workdir f in
  let socket = path "serve.sock" and journal = path "serve.journal" in
  let trace = path "daemon.json" in
  List.iter rm_rf [ path "store"; socket; journal; trace ];
  let log_fd =
    Unix.openfile (path "daemon.log") Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let env =
    Array.append
      [| "APEX_CACHE_DIR=" ^ path "store" |]
      (Array.of_list
         (List.filter
            (fun kv ->
              not
                (String.starts_with ~prefix:"APEX_" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env ctx.apex
      [| ctx.apex; "serve"; "--socket"; socket; "--jobs"; string_of_int clients;
         "--journal"; journal; "--trace=" ^ trace |]
      env Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  { pid; socket; journal; trace }

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "apex serve did not shut down cleanly"

(* [f d] with the daemon stopped and reaped however [f] ends *)
let with_daemon d f =
  match f d with
  | r ->
      stop_daemon d;
      r
  | exception e ->
      (try stop_daemon d with Failure _ -> ());
      raise e

(* run [f 0] ... [f (clients - 1)] on their own threads; re-raise the
   first failure *)
let on_client_threads f =
  let results = Array.make clients (Error Exit) in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun c -> results.(c) <- (try Ok (f c) with e -> Error e)) c)
  in
  List.iter Thread.join threads;
  Array.to_list results |> List.map (function Ok r -> r | Error e -> raise e)

(* --- clients --- *)

type sample = {
  client : int;
  round : int;
  entry : entry;
  sent : float;
  latency : float;  (** s, send to response *)
  response : Proto.response;
}

let tenant client = Printf.sprintf "tenant%d" client

(* a namespace nobody warmed: one per cold request *)
let cold_tenant client n = Printf.sprintf "tenant%d-cold%d" client n

let request conn ~tenant job =
  let sent = now () in
  let response = Client.request conn { Proto.tenant; job; deadline_s = None } in
  (sent, now () -. sent, response)

(* each client submits the warm part of the deck once, in deck order *)
let warm_up d =
  let one client =
    let conn = Client.connect d.socket in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    List.iter
      (fun e ->
        if not e.cold then
          match request conn ~tenant:(tenant client) e.job with
          | _, _, Proto.Ok _ -> ()
          | _, _, Proto.Error err -> failwith ("warm-up failed: " ^ err.message))
      deck
  in
  ignore (on_client_threads one : unit list)

(* Journal bytes per deck: one deck sent sequentially after the window,
   the journal's growth measured around each request (every record of a
   request is appended before its response) and the request repeated
   once when a compaction rewrote the file meanwhile.  Returns the bytes
   and the number of requests sent. *)
let journal_probe d =
  let conn = Client.connect d.socket in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let size () = (Unix.stat d.journal).st_size in
  let sent = ref 0 in
  let growth e =
    let before = size () in
    incr sent;
    let tenant = if e.cold then cold_tenant 0 (1_000_000 + !sent) else tenant 0 in
    ignore (request conn ~tenant e.job);
    size () - before
  in
  let bytes =
    List.fold_left
      (fun acc e ->
        let g = growth e in
        acc + if g >= 0 then g else growth e)
      0 deck
  in
  (bytes, !sent)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The closed loop of one client: rounds of the deck, each shuffled by
   (seed, client, round), until the window closes. *)
let client_loop ctx d ~deadline client =
  let conn = Client.connect d.socket in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let samples = ref [] and cold_n = ref 0 in
  let rec rounds round =
    if now () < deadline then begin
      let order = shuffle (Random.State.make [| ctx.seed; client; round |]) deck in
      List.iter
        (fun e ->
          if now () < deadline then begin
            let tenant =
              if e.cold then (incr cold_n; cold_tenant client !cold_n)
              else tenant client
            in
            let sent, latency, response = request conn ~tenant e.job in
            samples := { client; round; entry = e; sent; latency; response } :: !samples
          end)
        order;
      rounds (round + 1)
    end
  in
  rounds 0;
  List.rev !samples

(* --- output checks --- *)

(* results of the same job run standalone, in this process: each from
   an empty store and empty memos, as a first `apex` run would *)
let references ctx samples =
  let dir = Filename.concat ctx.workdir "reference-store" in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = job_key s.entry.job in
      if not (Hashtbl.mem tbl k) then
        Hashtbl.replace tbl k
          (with_fresh_store dir @@ fun () ->
           with_cold_memos (fun () -> Json.to_string (Jobs.run s.entry.job))))
    samples;
  tbl

let results_of report =
  Json.to_string (Option.value ~default:Json.Null (Json.member "results" report))

(* --- metrics --- *)

let service_ms report = num (root report) "total_ms"

let rows_of results =
  match results with Json.List rows -> rows | _ -> []

(* Quality of the designs the deck returns, from one response per
   distinct job: the DSE rows give post-PnR area and performance, the
   map responses post-mapping PE-core energy and PE-core area. *)
let quality ok =
  let distinct = Hashtbl.create 32 in
  List.iter
    (fun (s, report) ->
      Hashtbl.replace distinct (job_key s.entry.job) (s.entry.job, report))
    ok;
  (* in job-key order, so the sums do not depend on the shuffle *)
  let distinct =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) distinct [])
  in
  let per kind f =
    List.concat_map
      (fun (_, (job, report)) ->
        if Jobs.kind job = kind then
          f (Option.value ~default:Json.Null (Json.member "results" report))
        else [])
      distinct
  in
  let dse_rows = per "dse" rows_of in
  let mapped =
    List.filter
      (fun r -> Json.member "status" r = Some (Json.String "mapped"))
      dse_rows
  in
  let maps = per "map" (fun r -> [ r ]) in
  [ m "perf_per_mm2_geo" "runs/ms/mm2"
      (geomean (List.map (fun r -> num r "perf_per_mm2") mapped));
    m "total_area_mm2" "mm2"
      (1e-6 *. sum (List.map (fun r -> num r "total_area") mapped));
    m "energy_fj_per_output_geo" "fJ"
      (geomean (List.map (fun r -> num r "pe_energy_per_output") maps));
    m "pe_area_um2_total" "um2" (sum (List.map (fun r -> num r "pe_area") maps)) ]

let run ctx =
  Apex_exec.Pool.set_jobs 1;
  (* five full set-ups, the last one kept for the measurement *)
  let setups = 5 in
  let setup () =
    let d = start_daemon ctx in
    (try warm_up d with e -> (try stop_daemon d with Failure _ -> ()); raise e);
    d
  in
  (* each set-up at the reference CPU speed (Common, "CPU speed"), from
     probes of this process's CPU around it *)
  let daemon, setup_s =
    let runs =
      List.init setups (fun i ->
          let before = probe () in
          let d, t = time setup in
          let f = speed_factor ((before +. probe ()) /. 2.0) in
          if i < setups - 1 then stop_daemon d;
          (d, t *. f))
    in
    (fst (List.nth runs (setups - 1)), median (List.map snd runs))
  in
  let (results, epochs), window, rss, journal =
    with_daemon daemon (fun d ->
        let start = now () in
        let deadline = start +. ctx.seconds in
        let results =
          rotating d.pid (fun () -> on_client_threads (client_loop ctx d ~deadline))
        in
        let window = now () -. start in
        let rss = peak_rss_mb (string_of_int d.pid) in
        (results, window, rss, if ctx.trace then journal_probe d else (0, 0)))
  in
  rm_rf (Filename.concat ctx.workdir "store");
  let samples = List.concat results in
  let ok =
    List.filter_map
      (fun s -> match s.response with Proto.Ok r -> Some (s, r) | Proto.Error _ -> None)
      samples
  in
  let errors =
    List.filter_map
      (fun s -> match s.response with Proto.Error e -> Some e | Proto.Ok _ -> None)
      samples
  in
  List.iter
    (fun (kind, message) -> log "serve error: %s: %s" kind message)
    (List.sort_uniq compare
       (List.map (fun (e : Proto.error) -> (e.kind, e.message)) errors));
  let refs = references ctx samples in
  (* an error, or results that differ from the standalone run *)
  let failed_op s =
    match s.response with
    | Proto.Error _ -> true
    | Proto.Ok r -> results_of r <> Hashtbl.find refs (job_key s.entry.job)
  in
  let bad = List.filter failed_op samples in
  List.iter
    (fun k ->
      log "serve: %d x %s: error or differs from a standalone run"
        (List.length (List.filter (fun s -> job_key s.entry.job = k) bad)) k)
    (List.sort_uniq compare (List.map (fun s -> job_key s.entry.job) bad));
  (* An op is one distinct job of the deck, failed when any of its
     responses in the window was an error or differed from the
     standalone run: counts that do not depend on how many rounds the
     window held. *)
  let keys l = List.sort_uniq compare (List.map (fun s -> job_key s.entry.job) l) in
  let attempted = List.length (keys samples) and failed = List.length (keys bad) in
  (* a round's wall time: first send to last response, complete rounds only *)
  let rounds =
    List.concat_map
      (fun c ->
        let mine = List.filter (fun s -> s.client = c) samples in
        let n_rounds = List.fold_left (fun acc s -> max acc (s.round + 1)) 0 mine in
        List.filter_map
          (fun r ->
            match List.filter (fun s -> s.round = r) mine with
            | round when List.length round = deck_len -> Some round
            | _ -> None)
          (List.init n_rounds Fun.id))
      (List.init clients Fun.id)
  in
  let round_wall round =
    let first = List.fold_left (fun acc s -> Float.min acc s.sent) infinity round in
    let last =
      List.fold_left (fun acc s -> Float.max acc (s.sent +. s.latency)) 0.0 round
    in
    last -. first
  in
  let n_cold = List.length (List.filter (fun s -> s.entry.cold) samples) in
  log
    "serve-mixed: %d requests (%d cold, %d errors, %d failed) in %.2f s, %d \
     complete rounds of %d; %d of %d jobs failed"
    (List.length samples) n_cold (List.length errors) (List.length bad) window
    (List.length rounds) deck_len failed attempted;
  if not ctx.trace then begin
    (* timings at the reference CPU speed of the daemon's CPU (Common,
       "CPU speed"): each round and request takes the factor of the
       epoch that holds its middle.  Both clients send all the while, so
       together they complete [clients] rounds' worth of requests in one
       round's time. *)
    let scaled t0 d = d *. factor_at epochs (t0 +. (d /. 2.0)) in
    let round_start round =
      List.fold_left (fun acc s -> Float.min acc s.sent) infinity round
    in
    let walls = List.map (fun r -> scaled (round_start r) (round_wall r)) rounds in
    let latencies = List.map (fun s -> scaled s.sent s.latency) samples in
    let completed =
      List.length
        (List.filter
           (fun s -> match s.response with Proto.Ok _ -> true | Proto.Error _ -> false)
           (List.concat rounds))
    in
    log "round walls (s): %s" (seconds_list (List.map round_wall rounds));
    log "speed factors: %s"
      (String.concat " " (List.map (fun (_, f) -> Printf.sprintf "%.3f" f) epochs));
    { correct = true;
      attempted;
      failed;
      e2e =
        [ m "setup_s" "s" setup_s;
          m "wall_s" "s" (median walls);
          m "peak_rss_mb" "MB" rss;
          m "throughput_rps" "1/s"
            (float_of_int (clients * completed) /. sum walls);
          m "latency_p50_ms" "ms" (1e3 *. percentile 0.5 latencies);
          m "latency_p95_ms" "ms" (1e3 *. percentile 0.95 latencies) ]
        @ quality ok;
      layer = [] }
  end
  else begin
    (* the client side of every request, as spans *)
    write_spans
      (Filename.concat ctx.workdir "spans.jsonl")
      (List.mapi
         (fun i s ->
           { id = i + 1; parent = 0; name = "request:" ^ Jobs.kind s.entry.job;
             t0 = s.sent; t1 = s.sent +. s.latency; alloc_w = 0.0 })
         (List.sort (fun a b -> Float.compare a.sent b.sent) samples));
    let daemon_report =
      match
        Json.of_string (In_channel.with_open_bin daemon.trace In_channel.input_all)
      with
      | Ok j -> j
      | Error msg -> failwith ("daemon trace: " ^ msg)
    in
    (* per-deck figures come from the complete rounds, whose job mix is
       exactly one deck *)
    let passes = float_of_int (List.length rounds) in
    let waits =
      List.map (fun (s, r) -> (1e3 *. s.latency) -. service_ms r) ok
    in
    let journal_bytes, probe_requests = journal in
    let warm_requests =
      clients * List.length (List.filter (fun e -> not e.cold) deck)
    in
    let served = warm_requests + List.length samples + probe_requests in
    let serve =
      [ ("serve.wait_ms", percentile 0.5 waits);
        ("serve.service_ms", percentile 0.5 (List.map (fun (_, r) -> service_ms r) ok));
        ("serve.rejected",
         float_of_int
           (List.length
              (List.filter (fun (e : Proto.error) -> e.kind = "over-capacity") errors)));
        ("serve.journal_appends",
         float_of_int (counter daemon_report "serve.journal_appends" * deck_len)
         /. float_of_int served);
        ("serve.journal_bytes", float_of_int journal_bytes) ]
    in
    let inputs reports passes =
      { reports; spans = []; passes; direct = false;
        failed_ratio =
          ratio
            (List.length (List.filter failed_op (List.concat rounds)))
            (deck_len * List.length rounds);
        overhead_s = 0.0; nonexact = 0; serve }
    in
    let reports round =
      List.filter_map
        (fun s -> match s.response with Proto.Ok r -> Some r | Proto.Error _ -> None)
        round
    in
    let unstable =
      self_check
        (List.map
           (fun round -> exact_candidates (layer_metrics (inputs (reports round) 1.0)))
           rounds)
    in
    { correct = true;
      attempted;
      failed;
      e2e = [];
      layer =
        layer_metrics
          { (inputs (List.concat_map reports rounds) passes) with
            nonexact = List.length unstable } }
  end
