(* cold-suite: the paper's six evaluated applications x {PE Base,
   PE Spec} — the fleet `apex dse --all` evaluates — from empty memos
   and an empty artifact store, at --jobs 1.  This is the wait an
   architect sees on a first DSE run; cover/match and placement
   dominate it. *)

open Common
module Apps = Apex_halide.Apps
module Dse = Apex.Dse
module Jobs = Apex.Jobs
module Metrics = Apex.Metrics
module Variants = Apex.Variants
module D = Apex_merging.Datapath
module Cover = Apex_mapper.Cover
module Fabric = Apex_cgra.Fabric
module Place = Apex_cgra.Place
module Route = Apex_cgra.Route
module Pe_pipeline = Apex_pipelining.Pe_pipeline
module App_pipeline = Apex_pipelining.App_pipeline
module Tech = Apex_models.Tech
module Interconnect = Apex_models.Interconnect
module Registry = Apex_telemetry.Registry

(* the figures of one (application, variant) pair *)
type row = {
  app : string;
  variant : string;
  spec : string;
  status : string;
  n_pes : int;
  cycles_per_run : int;
  total_area : float;  (** um^2, post-PnR *)
  perf_per_mm2 : float;
  energy : float;  (** total fJ per output *)
  pe_area : float;  (** um^2, one PE core *)
}

let unmapped (a : Apps.t) (v : Variants.t) spec status =
  { app = a.name; variant = v.name; spec; status; n_pes = 0; cycles_per_run = 0;
    total_area = 0.0; perf_per_mm2 = 0.0; energy = 0.0; pe_area = D.area v.dp }

let row_of ((spec, (v : Variants.t), (a : Apps.t)), r) =
  match Dse.mapped_opt r with
  | Some (pp : Metrics.post_pipelining) ->
      { app = a.name; variant = v.name; spec; status = "mapped";
        n_pes = pp.pnr.pm.n_pes; cycles_per_run = pp.cycles_per_run;
        total_area = pp.pnr.total_area; perf_per_mm2 = pp.perf_per_mm2;
        energy = pp.pnr.total_energy_per_output; pe_area = pp.pnr.pm.pe_area }
  | None -> unmapped a v spec (Dse.pair_status r)

let print_rows title rows =
  log "%s" title;
  List.iter
    (fun r ->
      log
        "  %-10s %-8s %-10s n_pes=%d cycles_per_run=%d total_area=%.2f \
         perf_per_mm2=%.6f"
        r.app r.variant r.status r.n_pes r.cycles_per_run r.total_area
        r.perf_per_mm2)
    rows

let specs (a : Apps.t) = [ "base"; "spec:" ^ a.name ]

let store_dir ctx = Filename.concat ctx.workdir "store"

(* One untraced pass through the library, pair by pair in `apex dse
   --all` order, so each pair's latency is visible: the variant (built
   on first use, memoized) plus its evaluation. *)
type pass = {
  wall : float;
  latencies : float list;
  pairs : ((string * Variants.t * Apps.t) * Dse.pair_result) list;
}

let untraced_pass ctx apps =
  with_fresh_store (store_dir ctx) @@ fun () ->
  with_cold_memos @@ fun () ->
  let timed, wall =
    time (fun () ->
        List.concat_map
          (fun (a : Apps.t) ->
            List.map
              (fun spec ->
                time (fun () ->
                    let v = Dse.variant_for spec in
                    ((spec, v, a), List.hd (Dse.evaluate_pairs [ (v, a) ]))))
              (specs a))
          apps)
  in
  { wall; latencies = List.map snd timed; pairs = List.map fst timed }

(* --- the traced harness --- *)

(* The evaluation Metrics.post_pipelining performs, with a span around
   each layer call: cover, place, route, pipelining.  The row it builds
   must equal the library's row; the check catches drift between this
   flow and Metrics. *)
let traced_eval spec (v : Variants.t) (app : Apps.t) =
  match with_span "cover" (fun () -> Metrics.post_mapping v app) with
  | exception Cover.Unmappable _ -> unmapped app v spec "unmappable"
  | pm, mapped ->
      let fabric, placement =
        with_span "place" (fun () ->
            let rec fit height =
              let f = Fabric.create ~height () in
              if Fabric.n_pe_tiles f >= Cover.n_pes mapped then f
              else fit (height * 2)
            in
            let fabric = fit 16 in
            (fabric, Place.place ~effort:1 fabric mapped))
      in
      let routes, routing_tiles =
        with_span "route" (fun () ->
            let routes = Route.route placement mapped in
            (routes, Route.routing_only_tiles routes placement mapped))
      in
      let pe_plan, app_plan =
        with_span "pipelining" (fun () ->
            let pe_plan = Pe_pipeline.plan v.dp in
            ( pe_plan,
              App_pipeline.balance ~rf_cutoff:2 mapped
                ~pe_latency:pe_plan.Pe_pipeline.stages ))
      in
      (* the cost model of Metrics.post_pnr / post_pipelining *)
      let params = fabric.Fabric.params in
      let word_inputs = float_of_int (D.n_word_inputs v.dp) in
      let bit_inputs = float_of_int (D.n_bit_inputs v.dp) in
      let n_pes = float_of_int pm.Metrics.n_pes in
      let sb = Interconnect.sb_cost params ~tile_outputs:2 in
      let cb = Interconnect.cb_cost params in
      let cb_bit = Interconnect.cb_bit_cost params in
      let sb_area =
        float_of_int (pm.n_pes + routing_tiles + app.mem_tiles) *. sb.Tech.area
      in
      let cb_area =
        n_pes *. ((word_inputs *. cb.Tech.area) +. (bit_inputs *. cb_bit.Tech.area))
      in
      let mem_area = float_of_int app.mem_tiles *. Tech.mem_tile_cost.area in
      let io_area = float_of_int app.io_tiles *. Tech.io_tile_cost.area in
      let total_area = pm.total_pe_area +. sb_area +. cb_area +. mem_area +. io_area in
      let hop_energy =
        (Tech.word_mux_cost ((3 * params.Interconnect.word_tracks) + 2)).energy
        +. Tech.track_wire_energy
      in
      let interconnect_energy =
        (float_of_int routes.Route.word_hops *. hop_energy)
        +. n_pes
           *. ((word_inputs *. cb.Tech.energy)
              +. (bit_inputs *. cb_bit.Tech.energy))
      in
      let mem_energy = float_of_int app.mem_tiles *. Tech.mem_tile_cost.energy in
      let per_output x = x /. float_of_int app.unroll in
      let period_ps = Float.max pe_plan.period_ps Tech.clock_period_ps in
      let firings = (app.outputs_per_run + app.unroll - 1) / app.unroll in
      let cycles_per_run = firings + app_plan.App_pipeline.depth_cycles in
      let runtime_ms = float_of_int cycles_per_run *. period_ps *. 1e-9 in
      let reg_area =
        App_pipeline.regs_area app_plan +. (n_pes *. pe_plan.reg_area)
      in
      let area_mm2 = (total_area +. reg_area) *. 1e-6 in
      { app = app.name; variant = v.name; spec; status = "mapped";
        n_pes = pm.n_pes; cycles_per_run; total_area;
        perf_per_mm2 = 1.0 /. runtime_ms /. Float.max 1e-9 area_mm2;
        energy =
          pm.pe_energy_per_output
          +. per_output (interconnect_energy +. mem_energy);
        pe_area = pm.pe_area }

(* One traced pass: the same fleet in flow order, a span around each
   variant construction and each layer of each evaluation, the
   program's registry on for the layers nested inside. *)
let traced_pass ctx apps =
  with_fresh_store (store_dir ctx) @@ fun () ->
  with_cold_memos @@ fun () ->
  Registry.reset ();
  let (rows, wall), spans =
    recording (fun () ->
        time (fun () ->
            List.concat_map
              (fun (a : Apps.t) ->
                List.map
                  (fun spec ->
                    let v = with_span "variant" (fun () -> Dse.variant_for spec) in
                    traced_eval spec v a)
                  (specs a))
              apps))
  in
  let report = Apex_telemetry.Report.to_json (Registry.snapshot ()) in
  (rows, wall, spans, report)

(* --- output checks (outside the timed window) --- *)

(* the number of mapped pairs whose cover disagrees with the
   interpreter *)
let validate ctx pairs =
  List.fold_left
    (fun (index, bad) ((_, (v : Variants.t), (a : Apps.t)), r) ->
      match Dse.mapped_opt r with
      | None -> (index + 1, bad)
      | Some _ ->
          let _, mapped = Metrics.post_mapping v a in
          let ok = cover_matches ~seed:ctx.seed ~index v a mapped in
          (index + 1, if ok then bad else bad + 1))
    (0, 0) pairs
  |> snd

let rows_json pass =
  Apex_telemetry.Json.to_string
    (Apex_telemetry.Json.List (List.map Jobs.dse_row_json pass.pairs))

(* the same fleet through the CLI, in its own process *)
let cli_rows ctx =
  run_capture ctx.apex [ "dse"; "--all"; "--jobs"; "1"; "--json"; "--no-cache" ]

let failed_pairs pass =
  List.length
    (List.filter
       (fun (_, r) -> match r with Dse.Failed _ | Dse.Skipped _ -> true | _ -> false)
       pass.pairs)

let quality rows =
  let mapped = List.filter (fun r -> r.status = "mapped") rows in
  let distinct =
    List.sort_uniq compare (List.map (fun r -> (r.spec, r.pe_area)) rows)
  in
  [ m "perf_per_mm2_geo" "runs/ms/mm2"
      (geomean (List.map (fun r -> r.perf_per_mm2) mapped));
    m "total_area_mm2" "mm2" (1e-6 *. sum (List.map (fun r -> r.total_area) mapped));
    m "energy_fj_per_output_geo" "fJ" (geomean (List.map (fun r -> r.energy) mapped));
    m "pe_area_um2_total" "um2" (sum (List.map snd distinct)) ]

let setup () = Apps.evaluated ()

let run ctx =
  Apex_exec.Pool.set_jobs 1;
  let lower, setup_s = setup_sampler setup in
  if not ctx.trace then begin
    (* only the first pass is kept whole (for the output checks), so
       the passes do not pile up in the heap peak_rss_mb measures *)
    let first = ref None in
    let measured =
      measured_passes ctx.seconds (fun () ->
          let p = untraced_pass ctx (lower ()) in
          if Option.is_none !first then first := Some p;
          (p.wall, p.latencies, List.map row_of p.pairs, failed_pairs p))
    in
    let factors = List.map fst measured and passes = List.map snd measured in
    let rss = peak_rss_mb "self" in
    let first = Option.get !first in
    let rows = List.map row_of first.pairs in
    print_rows "cold-suite rows (first pass):" rows;
    let drift = List.length (List.filter (fun (_, _, r, _) -> r <> rows) passes) in
    if drift > 0 then log "self-check: %d passes gave other rows than the first" drift;
    let mismatched = validate ctx first.pairs in
    let n = List.length passes in
    let attempted = n * List.length rows in
    let failed =
      List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 passes + (n * mismatched)
    in
    (* timings at the reference CPU speed (Common, "CPU speed") *)
    let raw = List.map (fun (w, _, _, _) -> w) passes in
    let walls = List.map2 ( *. ) factors raw in
    let latencies =
      List.concat
        (List.map2 (fun f (_, l, _, _) -> List.map (( *. ) f) l) factors passes)
    in
    log "pass walls (s): %s" (seconds_list raw);
    log "speed factors: %s" (String.concat " " (List.map (Printf.sprintf "%.3f") factors));
    log "cold-suite: %d passes, %d pair latencies, failed %d/%d" n
      (List.length latencies) failed attempted;
    { correct = drift = 0;
      attempted;
      failed;
      e2e =
        [ m "setup_s" "s" (setup_s factors);
          m "wall_s" "s" (median walls);
          m "peak_rss_mb" "MB" rss;
          m "throughput_rps" "1/s" (float_of_int attempted /. sum walls);
          m "latency_p50_ms" "ms" (1e3 *. percentile 0.5 latencies);
          m "latency_p95_ms" "ms" (1e3 *. percentile 0.95 latencies) ]
        @ quality rows;
      layer = [] }
  end
  else begin
    let apps = lower () in
    let reference = untraced_pass ctx apps in
    let ref_rows = List.map row_of reference.pairs in
    print_rows "cold-suite rows (untraced pass):" ref_rows;
    Registry.enable ();
    let traced = for_seconds ctx.seconds (fun () -> traced_pass ctx apps) in
    Registry.disable ();
    let n = List.length traced in
    log "traced pass walls (s): %s; untraced %.3f"
      (seconds_list (List.map (fun (_, w, _, _) -> w) traced))
      reference.wall;
    let spans = List.concat_map (fun (_, _, s, _) -> s) traced in
    write_spans (Filename.concat ctx.workdir "spans.jsonl") spans;
    let drift =
      List.filter (fun (rows, _, _, _) -> rows <> ref_rows) traced |> List.length
    in
    if drift > 0 then begin
      let rows, _, _, _ = List.hd traced in
      print_rows "cold-suite rows (traced harness) differ:" rows
    end;
    let cli_agrees = String.trim (cli_rows ctx) = String.trim (rows_json reference) in
    if not cli_agrees then
      log "cold-suite: `apex dse --all --json` disagrees with the library rows";
    let mismatched = validate ctx reference.pairs in
    let attempted = List.length reference.pairs in
    let failed = failed_pairs reference + mismatched in
    let inputs reports spans passes =
      { reports; spans; passes; direct = true;
        failed_ratio = ratio failed attempted;
        overhead_s =
          median (List.map (fun (_, w, _, _) -> w) traced) -. reference.wall;
        nonexact = 0; serve = [] }
    in
    let per_pass =
      List.map
        (fun (_, _, s, r) -> exact_candidates (layer_metrics (inputs [ r ] s 1.0)))
        traced
    in
    let unstable = self_check per_pass in
    let reports = List.map (fun (_, _, _, r) -> r) traced in
    { correct = drift = 0 && cli_agrees;
      attempted;
      failed;
      e2e = [];
      layer =
        layer_metrics
          { (inputs reports spans (float_of_int n)) with
            nonexact = List.length unstable } }
  end
