(* Tests for the benchmark-trajectory snapshots: the band math, the
   diff gate's tolerance semantics, and — the expensive but load-bearing
   part — the determinism contract that makes BENCH_<area>.json files
   committable at all: consecutive runs and different pool widths must
   produce byte-identical counter sections. *)

module Snapshot = Apex.Snapshot
module Json = Apex_telemetry.Json
module Pool = Apex_exec.Pool

let check = Alcotest.check

(* --- band math --- *)

let test_band_of_seconds () =
  check Alcotest.int "zero time" 0 (Snapshot.band_of_seconds 0.0);
  check Alcotest.int "below the unit" 0 (Snapshot.band_of_seconds 0.0005);
  check Alcotest.int "exactly the unit" 0 (Snapshot.band_of_seconds 0.001);
  (* band k is centered on unit * ratio^k: 4 ms -> 1, 16 ms -> 2 *)
  check Alcotest.int "4 ms" 1 (Snapshot.band_of_seconds 0.004);
  check Alcotest.int "16 ms" 2 (Snapshot.band_of_seconds 0.016);
  check Alcotest.int "1 s" 5 (Snapshot.band_of_seconds 1.0);
  (* monotone: more time can never lower the band *)
  let bands =
    List.map Snapshot.band_of_seconds [ 0.001; 0.003; 0.01; 0.1; 1.0; 10.0 ]
  in
  check Alcotest.(list int) "monotone" (List.sort compare bands) bands

(* --- the diff gate (pure JSON-level checks) --- *)

let snap_json ?(area = "mining") ?(counters = [ ("c", 10) ]) ?(band = 3) () =
  Json.Obj
    [ ("schema", Json.String Snapshot.schema_version);
      ("area", Json.String area);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
      ("time_bands", Json.Obj [ ("total", Json.Int band) ])
    ]

let test_diff_agreement () =
  check Alcotest.(list string) "identical snapshots agree" []
    (Snapshot.diff (snap_json ()) (snap_json ()))

let test_diff_counter_drift () =
  let drift =
    Snapshot.diff (snap_json ()) (snap_json ~counters:[ ("c", 11) ] ())
  in
  check Alcotest.bool "value drift caught" true (drift <> []);
  let missing = Snapshot.diff (snap_json ()) (snap_json ~counters:[] ()) in
  check Alcotest.bool "missing counter caught" true (missing <> []);
  let extra =
    Snapshot.diff (snap_json ())
      (snap_json ~counters:[ ("c", 10); ("new", 1) ] ())
  in
  check Alcotest.bool "extra counter caught" true (extra <> []);
  let mismatched_area = Snapshot.diff (snap_json ()) (snap_json ~area:"smt" ()) in
  check Alcotest.bool "area mismatch caught" true (mismatched_area <> [])

let test_diff_band_tolerance () =
  let old_j = snap_json ~band:3 () in
  (* pass at the boundary, fail one beyond it *)
  check Alcotest.(list string) "band +1 within default tolerance" []
    (Snapshot.diff old_j (snap_json ~band:4 ()));
  check Alcotest.(list string) "band -1 within default tolerance" []
    (Snapshot.diff old_j (snap_json ~band:2 ()));
  check Alcotest.bool "band +2 beyond default tolerance" true
    (Snapshot.diff old_j (snap_json ~band:5 ()) <> []);
  check Alcotest.(list string) "band +2 within tolerance 2" []
    (Snapshot.diff ~tolerance:2 old_j (snap_json ~band:5 ()));
  check Alcotest.bool "tolerance 0 rejects +1" true
    (Snapshot.diff ~tolerance:0 old_j (snap_json ~band:4 ()) <> [])

(* --- the determinism contract --- *)

let counters_string t =
  (* the committable section, exactly as it is serialized *)
  match Snapshot.to_json t with
  | Json.Obj fields -> Json.to_string (List.assoc "counters" fields)
  | _ -> Alcotest.fail "to_json did not yield an object"

let test_run_twice_identical () =
  (* mining is the cheapest area with a rich counter set *)
  let a = Snapshot.run Snapshot.Mining in
  let b = Snapshot.run Snapshot.Mining in
  check Alcotest.string "counter sections byte-identical"
    (counters_string a) (counters_string b)

let test_jobs_invariance () =
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      let per_jobs n area =
        Pool.set_jobs n;
        counters_string (Snapshot.run area)
      in
      List.iter
        (fun area ->
          check Alcotest.string
            (Snapshot.area_name area ^ " counters jobs-invariant")
            (per_jobs 1 area) (per_jobs 4 area))
        (* dse fans the pair evaluations out on the pool, the one
           parallel phase; mining and smt run serially under any width *)
        [ Snapshot.Mining; Snapshot.Smt; Snapshot.Dse ])

let test_no_exec_counters () =
  let t = Snapshot.run Snapshot.Smt in
  List.iter
    (fun (k, _) ->
      check Alcotest.bool (k ^ " not an exec counter") false
        (String.starts_with ~prefix:"exec." k))
    t.Snapshot.counters

let () =
  Alcotest.run "snapshot"
    [ ( "bands",
        [ Alcotest.test_case "band_of_seconds" `Quick test_band_of_seconds ] );
      ( "diff",
        [ Alcotest.test_case "agreement" `Quick test_diff_agreement;
          Alcotest.test_case "counter drift" `Quick test_diff_counter_drift;
          Alcotest.test_case "band tolerance" `Quick test_diff_band_tolerance ]
      );
      ( "determinism",
        [ Alcotest.test_case "run twice identical" `Quick
            test_run_twice_identical;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "no exec.* counters" `Quick test_no_exec_counters
        ] ) ]
