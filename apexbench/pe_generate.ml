(* pe-generate: build every PE variant with no mapping — PE 1 ... PE 5
   for all twelve applications (evaluated, unseen and extended), then
   the domain PEs IP, IP2, IP3 and ML — from empty memos and an empty
   artifact store, at --jobs 1.  This is the "generate the PE and its
   compiler" half of the flow: mining, MIS, merging, configspace and
   rule synthesis.  Cover, place and route do nothing here, so a change
   to them should leave this workload unchanged. *)

open Common
module Apps = Apex_halide.Apps
module Dse = Apex.Dse
module Metrics = Apex.Metrics
module Variants = Apex.Variants
module D = Apex_merging.Datapath
module Cs = Apex_verif.Configspace
module Cover = Apex_mapper.Cover
module Registry = Apex_telemetry.Registry

(* PE 1 ... PE [max_pe] per application *)
let max_pe = 5

let apps () = Apps.evaluated () @ Apps.unseen () @ Apps.extended ()

(* One pass, with a benchmark span around each step when [traced].
   Returns each variant with the application it was generated for (None
   for the domain PEs), each step's latency and the pass's wall time. *)
let pass ctx ~traced apps =
  with_fresh_store (Filename.concat ctx.workdir "store") @@ fun () ->
  with_cold_memos @@ fun () ->
  let step name f =
    time (fun () -> if traced then with_span name f else f ())
  in
  let per_app (a : Apps.t) =
    let pe1, t1 = step "variant" (fun () -> Dse.pe_k a 0) in
    let ranked, ta = step "analysis" (fun () -> Variants.analysis_of a) in
    let available = List.length (Variants.interesting_patterns ranked) in
    let rest =
      List.init (min (max_pe - 1) available) (fun k ->
          step "variant" (fun () -> Dse.pe_k a (k + 1)))
    in
    ( (pe1, Some a) :: List.map (fun (v, _) -> (v, Some a)) rest,
      t1 :: ta :: List.map snd rest )
  in
  let per_domain f =
    let v, t = step "variant" f in
    ([ (v, None) ], [ t ])
  in
  let results, wall =
    time (fun () ->
        List.map per_app apps
        @ List.map per_domain [ Dse.pe_ip; Dse.pe_ip2; Dse.pe_ip3; Dse.pe_ml ])
  in
  (List.concat_map fst results, List.concat_map snd results, wall)

(* every registered config realizable, no proof reverted or undecided *)
let realizable (v : Variants.t) =
  match v.configspace with
  | None -> false
  | Some r ->
      r.Cs.survey.unrealizable = [] && r.survey.unknown = [] && not r.reverted

(* Quality of the generated PEs, measured outside the timed window:
   each application's most specialized generated PE is evaluated on
   that application post-pipelining (the library's Metrics, default
   placement effort), and its cover is checked against the interpreter
   on seeded vectors.  Returns the metrics and the mismatched pairs. *)
let evaluate_outputs ctx variants =
  (* the last variant built for each application *)
  let most_specialized =
    List.rev
      (List.fold_left
         (fun acc ((v : Variants.t), owner) ->
           match owner with
           | Some (a : Apps.t) ->
               (v, a) :: List.filter (fun (_, (a' : Apps.t)) -> a'.name <> a.name) acc
           | None -> acc)
         [] variants)
  in
  List.fold_left
    (fun (index, pps, bad) ((v : Variants.t), (a : Apps.t)) ->
      match Metrics.post_pipelining v a with
      | exception Cover.Unmappable _ -> (index + 1, pps, bad)
      | pp ->
          let _, mapped = Metrics.post_mapping v a in
          let ok = cover_matches ~seed:ctx.seed ~index v a mapped in
          (index + 1, pp :: pps, if ok then bad else bad + 1))
    (0, [], 0) most_specialized
  |> fun (_, pps, bad) -> (List.rev pps, bad)

let pe_area_total variants =
  sum (List.map (fun ((v : Variants.t), _) -> D.area v.dp) variants)

let print_variants variants =
  log "pe-generate variants:";
  List.iter
    (fun ((v : Variants.t), owner) ->
      log "  %-10s %-8s pe_area=%.2f configs=%d rules=%d realizable=%b"
        (match owner with Some (a : Apps.t) -> a.name | None -> "domain")
        v.name (D.area v.dp) (List.length v.dp.D.configs) (List.length v.rules)
        (realizable v))
    variants

let run ctx =
  Apex_exec.Pool.set_jobs 1;
  let lower, setup_s = setup_sampler apps in
  let untraced () = pass ctx ~traced:false (lower ()) in
  if not ctx.trace then begin
    (* only the first pass is kept whole (for the output checks), so
       the passes do not pile up in the heap peak_rss_mb measures *)
    let first = ref None in
    let measured =
      measured_passes ctx.seconds (fun () ->
          let variants, latencies, wall = untraced () in
          if Option.is_none !first then first := Some variants;
          let unrealizable =
            List.length (List.filter (fun (v, _) -> not (realizable v)) variants)
          in
          (pe_area_total variants, List.length variants, unrealizable, wall, latencies))
    in
    let rss = peak_rss_mb "self" in
    let factors = List.map fst measured and passes = List.map snd measured in
    let variants = Option.get !first in
    print_variants variants;
    let area = pe_area_total variants in
    let drift = List.length (List.filter (fun (a, _, _, _, _) -> a <> area) passes) in
    if drift > 0 then
      log "self-check: %d passes gave another PE area than the first" drift;
    let unrealizable = List.fold_left (fun acc (_, _, u, _, _) -> acc + u) 0 passes in
    let pps, mismatched = evaluate_outputs ctx variants in
    let n = List.length passes in
    let attempted = List.fold_left (fun acc (_, k, _, _, _) -> acc + k) 0 passes in
    let failed = unrealizable + (n * mismatched) in
    (* timings at the reference CPU speed (Common, "CPU speed") *)
    let raw = List.map (fun (_, _, _, w, _) -> w) passes in
    let walls = List.map2 ( *. ) factors raw in
    let latencies =
      List.concat
        (List.map2 (fun f (_, _, _, _, l) -> List.map (( *. ) f) l) factors passes)
    in
    log "pass walls (s): %s" (seconds_list raw);
    log "speed factors: %s" (String.concat " " (List.map (Printf.sprintf "%.3f") factors));
    log "pe-generate: %d passes, %d variants per pass, %d evaluated pairs, failed %d/%d"
      n (List.length variants) (List.length pps) failed attempted;
    { correct = drift = 0;
      attempted;
      failed;
      e2e =
        [ m "setup_s" "s" (setup_s factors);
          m "wall_s" "s" (median walls);
          m "peak_rss_mb" "MB" rss;
          m "throughput_rps" "1/s" (float_of_int attempted /. sum walls);
          m "latency_p50_ms" "ms" (1e3 *. percentile 0.5 latencies);
          m "latency_p95_ms" "ms" (1e3 *. percentile 0.95 latencies);
          m "perf_per_mm2_geo" "runs/ms/mm2"
            (geomean (List.map (fun pp -> pp.Metrics.perf_per_mm2) pps));
          m "total_area_mm2" "mm2"
            (1e-6 *. sum (List.map (fun pp -> pp.Metrics.pnr.total_area) pps));
          m "energy_fj_per_output_geo" "fJ"
            (geomean
               (List.map (fun pp -> pp.Metrics.pnr.total_energy_per_output) pps));
          m "pe_area_um2_total" "um2" area ];
      layer = [] }
  end
  else begin
    let reference, _, reference_wall = untraced () in
    Registry.enable ();
    let traced =
      for_seconds ctx.seconds (fun () ->
          Registry.reset ();
          let (variants, _, wall), spans =
            recording (fun () -> pass ctx ~traced:true (lower ()))
          in
          (variants, wall, spans, Apex_telemetry.Report.to_json (Registry.snapshot ())))
    in
    Registry.disable ();
    let n = List.length traced in
    log "traced pass walls (s): %s; untraced %.3f"
      (seconds_list (List.map (fun (_, w, _, _) -> w) traced))
      reference_wall;
    let spans = List.concat_map (fun (_, _, s, _) -> s) traced in
    write_spans (Filename.concat ctx.workdir "spans.jsonl") spans;
    let area = pe_area_total reference in
    let drift =
      List.length (List.filter (fun (v, _, _, _) -> pe_area_total v <> area) traced)
    in
    if drift > 0 then
      log "pe-generate: traced passes built other PEs than the untraced one";
    let unrealizable =
      List.length (List.filter (fun (v, _) -> not (realizable v)) reference)
    in
    let attempted = List.length reference in
    let inputs reports spans passes =
      { reports; spans; passes; direct = true;
        failed_ratio = ratio unrealizable attempted;
        overhead_s = median (List.map (fun (_, w, _, _) -> w) traced) -. reference_wall;
        nonexact = 0; serve = [] }
    in
    let per_pass =
      List.map
        (fun (_, _, s, r) -> exact_candidates (layer_metrics (inputs [ r ] s 1.0)))
        traced
    in
    let unstable = self_check per_pass in
    let reports = List.map (fun (_, _, _, r) -> r) traced in
    { correct = drift = 0;
      attempted;
      failed = unrealizable;
      e2e = [];
      layer =
        layer_metrics
          { (inputs reports spans (float_of_int n)) with
            nonexact = List.length unstable } }
  end
