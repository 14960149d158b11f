(* The APEX benchmark: one workload per invocation.

     apexbench --workload cold-suite|pe-generate|serve-mixed --seed N
               --seconds S --trace 0|1 --workdir DIR --apex PATH

   Prints progress and per-pair rows, then, as the last line of stdout,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones (README.md).  apexbench/run.py is the entry point
   that builds this and supplies --workdir and --apex. *)

let () =
  (* the CPU-speed probe, run pinned to one CPU (Common.probe_on) *)
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--probe" ] then begin
    Common.reference_work ();  (* warm the heap, as in the harness *)
    Printf.printf "%.9f\n" (Common.probe ());
    exit 0
  end;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and workdir = ref "" and apex = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME cold-suite, pe-generate or serve-mixed");
      ("--seed", Arg.Set_int seed,
       "N seed of the validation vectors and request stream");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
      ("--apex", Arg.Set_string apex, "PATH the built apex CLI") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "apexbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR \
     --apex PATH";
  if !workdir = "" || !apex = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then (prerr_endline "apexbench: bad arguments (see --help)"; exit 2);
  let ctx =
    { Common.seed = !seed; seconds = !seconds; trace = !trace = 1;
      workdir = !workdir; apex = !apex }
  in
  let run =
    match !workload with
    | "cold-suite" -> Cold_suite.run
    | "pe-generate" -> Pe_generate.run
    | "serve-mixed" -> Serve_mixed.run
    | w -> prerr_endline ("apexbench: unknown workload " ^ w); exit 2
  in
  let result = run ctx in
  print_endline (Common.result_line result ~trace:ctx.trace)
