(* Benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--awesym PATH]

   Runs one workload and prints, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A preceding
   line records the run's context (backend, nproc, OCaml version and a
   calibration-loop time).  Any failure to run exits non-zero without a
   result line.  perfbench/README.md describes the workloads. *)

open Harness

(* Every per-layer metric, in report order.  A layer a workload does not
   exercise reports 0: no time was spent in it. *)
let per_layer =
  [
    ("core.build_s", "s");
    ("codegen.compile_s", "s");
    ("codegen.kernel_ops", "count");
    ("codegen.cmxs_bytes", "B");
    ("sweep.columns.ns_per_point", "ns");
    ("slp.eval_batch.ns_per_point", "ns");
    ("sweep.finish.ns_per_point", "ns");
    ("sweep.engine.ns_per_point", "ns");
    ("stats.ns_per_value", "ns");
    ("sweep.report_s", "s");
    ("gc.minor_words_per_point", "words");
    ("gc.major_collections", "count");
    ("serve.parse.us_p50", "us");
    ("registry.lookup.us_p50", "us");
    ("batch.enqueue.us_p50", "us");
    ("queue.wait.us_p50", "us");
    ("kernel.eval.us_p50", "us");
    ("respond.us_p50", "us");
    ("serve.sweep_chunk.us_p50", "us");
    ("serve.batch_points_mean", "count");
    ("serve.transport.us_p50", "us");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("serve.rss_growth_mb_per_1k_chunks", "MB");
    ("sweep.survivor_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let complete_layers metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.m_name = name) metrics with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    per_layer

let json_number v =
  if not (Float.is_finite v) then fail "non-finite metric value %h" v;
  Printf.sprintf "%.17g" v

let print_outcome o =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (String.concat ", " fields)

let print_context ~workload ~seed ~trace =
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"trace\": %b, \
     \"backend\": %S, \"nproc\": %d, \"ocaml\": %S, \"calibration_ms\": %s}}\n%!"
    workload seed trace
    (Symbolic.Slp.backend_name (Symbolic.Slp.current_backend ()))
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (json_number (calibration_ms ()))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and awesym = ref "_build/default/bin/awesym.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sweep-measures|sweep-moments|serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--awesym", Arg.Set_string awesym, "PATH awesym binary for serve-mixed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  install_cleanup ();
  Runtime.set_default_jobs (Some 1);
  Obs.enabled := false;
  Symbolic.Slp.set_backend Symbolic.Slp.Auto;
  Codegen.install ();
  let traced = !trace = 1 in
  let seconds = !seconds and seed = !seed in
  try
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1, not %d" !trace;
    let run =
      match (!workload, traced) with
      | "sweep-measures", false -> fun () -> Sweeps.run Sweeps.measures ~seed ~seconds
      | "sweep-measures", true -> fun () -> Sweeps.traced Sweeps.measures ~seed ~seconds
      | "sweep-moments", false -> fun () -> Sweeps.run Sweeps.moments ~seed ~seconds
      | "sweep-moments", true -> fun () -> Sweeps.traced Sweeps.moments ~seed ~seconds
      | "serve-mixed", _ -> fun () -> Serve_mixed.run ~awesym:!awesym ~seed ~seconds ~traced
      | w, _ -> fail "unknown workload %S" w
    in
    print_context ~workload:!workload ~seed ~trace:traced;
    let o = run () in
    let o = if traced then { o with metrics = complete_layers o.metrics } else o in
    if traced then begin
      mkdir_p ".perfbench-out";
      write_spans (Printf.sprintf ".perfbench-out/spans-%s-%d.json" !workload seed)
    end;
    print_outcome o;
    exit 0
  with
  | Bench_failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
