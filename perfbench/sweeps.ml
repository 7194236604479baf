(* The two in-process sweep workloads.  A timed repetition is one
   complete staged sweep — Engine.prepare, every eval_chunk, finish,
   report serialized — of a fixed number of Monte-Carlo points;
   repetitions run until the time budget is spent and each one
   contributes one points/s sample and one latency sample per chunk. *)

module Engine = Sweep.Engine
module Model = Awesymbolic.Model
module Slp = Symbolic.Slp
open Harness

type workload = {
  circuit : unit -> Setup.circuit;
  measures : Engine.measure list;
  points : int;  (** per timed repetition *)
  setup_reps : int;
}

(* Op-amp Monte-Carlo with the default ROM measures: the per-point Padé
   and measure finish dominates. *)
let measures =
  {
    circuit = Setup.opamp;
    measures = Engine.default_measures;
    points = 40_000;
    setup_reps = 9;
  }

(* RC-grid Monte-Carlo with raw moments only: sampling, the 794-op
   kernel, statistics and the cold compile weigh; no Padé finish. *)
let moments =
  {
    circuit = Setup.mesh;
    measures = [ Engine.Moment 0; Engine.Moment 1 ];
    points = 500_000;
    setup_reps = 3;
  }

type rep = {
  seed : int;
  n : int;
  wall : float;  (** prepare -> report serialized *)
  prepare_s : float;
  chunk_s : float array;
  finish_s : float;
  report_s : float;
  report : string;
  survivors : int;
  probes : float array list;  (** points re-checked against numeric AWE *)
  minor_words : float;
  major_collections : int;
}

let one_rep (built : Setup.built) wl plan ~seed =
  let model = built.Setup.model in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let prep = Engine.prepare ~seed ~jobs:1 ~measures:wl.measures model plan in
  let t1 = now () in
  let nc = Engine.prep_num_chunks prep in
  let results = Array.make nc None and chunk_s = Array.make nc 0.0 in
  for i = 0 to nc - 1 do
    let a = now () in
    results.(i) <- Some (Engine.eval_chunk prep i);
    let b = now () in
    record "sweep.eval_chunk" a b;
    chunk_s.(i) <- b -. a
  done;
  let t2 = now () in
  let result = Engine.finish prep results in
  let t3 = now () in
  let report = Obs.Json.to_string (Engine.to_json result) in
  let t4 = now () in
  let gc1 = Gc.quick_stat () in
  record "sweep.prepare" t0 t1;
  record "sweep.finish_stats" t2 t3;
  record "sweep.report" t3 t4;
  record "sweep.rep" t0 t4;
  let n = Engine.prep_points prep in
  let inputs = Engine.prep_inputs prep in
  let rng = Obs.Rng.create seed in
  let probes =
    List.init 4 (fun _ ->
        let i = Obs.Rng.int rng n in
        Array.map (fun col -> col.(i)) inputs)
  in
  ( {
      seed;
      n;
      wall = t4 -. t0;
      prepare_s = t1 -. t0;
      chunk_s;
      finish_s = t3 -. t2;
      report_s = t4 -. t3;
      report;
      survivors = Engine.survivors result;
      probes;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    },
    prep )

(* Repetitions until [seconds] have passed (at least three); the
   prep of the last one is kept for the traced replay. *)
let timed_reps built wl plan ~seed ~seconds ~first =
  let deadline = now () +. seconds in
  let rec loop acc k last =
    if k >= 3 && now () >= deadline then (List.rev acc, last)
    else
      let r, prep = one_rep built wl plan ~seed:((seed * 1000) + first + k) in
      loop (r :: acc) (k + 1) (Some prep)
  in
  match loop [] 0 None with
  | reps, Some prep -> (reps, prep)
  | _, None -> fail "no sweep repetition ran"

(* Points over the summed timed wall of every repetition.  A mean, not a
   median of per-repetition rates: host speed switches between regimes
   within a run, and a median flips between them where a mean moves
   with their mix. *)
let per_point_rate reps =
  let points = List.fold_left (fun a r -> a + r.n) 0 reps in
  float_of_int points /. List.fold_left (fun a r -> a +. r.wall) 0.0 reps

(* Staged report byte-identical to the one-call Engine.run at the same
   seed, and every probe within tolerance of numeric AWE.  Returns
   (checks made, checks failed). *)
let check built wl plan reps =
  let made = ref 0 and bad = ref 0 in
  let verdict ok what =
    incr made;
    if not ok then begin
      incr bad;
      prerr_endline ("perfbench: check failed: " ^ what)
    end
  in
  List.iter
    (fun r ->
      let one_call =
        Engine.run ~seed:r.seed ~jobs:1 ~measures:wl.measures built.Setup.model
          plan
      in
      verdict
        (Obs.Json.to_string (Engine.to_json one_call) = r.report)
        (Printf.sprintf "staged report differs from Engine.run (seed %d)" r.seed);
      List.iter
        (fun p ->
          let err = Setup.reference_error built p in
          verdict (err <= Setup.reference_rtol)
            (Printf.sprintf "compiled moments off numeric AWE by %.3e (seed %d)"
               err r.seed))
        r.probes)
    reps;
  (!made, !bad)

let setup wl ~seed =
  let circuit = wl.circuit () in
  let rng = Obs.Rng.create seed in
  let builds =
    List.init wl.setup_reps (fun _ -> Setup.cold (Setup.variant circuit rng))
  in
  let built = List.nth builds (wl.setup_reps - 1) in
  let plan =
    Sweep.Plan.make (Sweep.Plan.Monte_carlo wl.points)
      (Setup.axes circuit built.Setup.model)
  in
  (builds, built, plan)

let setup_s builds =
  median
    (Array.of_list
       (List.map (fun b -> b.Setup.build_s +. b.Setup.compile_s) builds))

let counts reps (made, bad) =
  let points = List.fold_left (fun a r -> a + r.n) 0 reps in
  let quarantined = List.fold_left (fun a r -> a + r.n - r.survivors) 0 reps in
  (points + made, quarantined + bad)

let run wl ~seed ~seconds =
  let builds, built, plan = setup wl ~seed in
  let reps, _ = timed_reps built wl plan ~seed ~seconds ~first:0 in
  let peak_rss_mb = status_mb "VmHWM" in
  let latencies_us =
    Array.map (fun s -> s *. 1e6) (Array.concat (List.map (fun r -> r.chunk_s) reps))
  in
  let attempted, failed = counts reps (check built wl plan reps) in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        metric "setup_s" "s" (setup_s builds);
        metric "points_per_s" "1/s" (per_point_rate reps);
        metric "latency_p50_us" "us" (median latencies_us);
        metric "latency_p90_us" "us" (quantile 0.9 latencies_us);
        metric "peak_rss_mb" "MB" peak_rss_mb;
      ];
  }

(* Re-run each chunk through eval_chunk and then through its stages on
   the prep's own input slice — the batch kernel over the chunk, the
   measure finish per point — back to back, so host drift hits all three
   alike.  Returns summed (eval_chunk, kernel, finish) seconds. *)
let replay model measures prep =
  let inputs = Engine.prep_inputs prep in
  let program = Model.program model in
  let whole = ref 0.0 and kernel = ref 0.0 and finish = ref 0.0 in
  for i = 0 to Engine.prep_num_chunks prep - 1 do
    let t0 = now () in
    let chunk = Engine.eval_chunk prep i in
    let t1 = now () in
    let len = Engine.chunk_len chunk in
    let slice = Array.map (fun col -> Array.sub col (Engine.chunk_lo chunk) len) inputs in
    let k0 = now () in
    let outs = Slp.eval_batch ~jobs:1 program slice in
    let k1 = now () in
    for j = 0 to len - 1 do
      ignore (Engine.moment_measures model measures (Array.map (fun o -> o.(j)) outs))
    done;
    let k2 = now () in
    record "sweep.eval_chunk.replay" t0 t1;
    record "slp.eval_batch" k0 k1;
    record "sweep.finish" k1 k2;
    whole := !whole +. (t1 -. t0);
    kernel := !kernel +. (k1 -. k0);
    finish := !finish +. (k2 -. k1)
  done;
  (!whole, !kernel, !finish)

let traced wl ~seed ~seconds =
  tracing := true;
  let builds, built, plan = setup wl ~seed in
  tracing := false;
  let plain, _ = timed_reps built wl plan ~seed ~seconds:(seconds /. 2.0) ~first:0 in
  tracing := true;
  let reps, prep =
    timed_reps built wl plan ~seed ~seconds:(seconds /. 2.0) ~first:500
  in
  let model = built.Setup.model in
  let chunk_total, kernel_s, finish_s = replay model wl.measures prep in
  let n = float_of_int (Engine.prep_points prep) in
  let ns x = x *. 1e9 in
  let med f = median (Array.of_list (List.map f reps)) in
  let points = List.fold_left (fun a r -> a + r.n) 0 reps in
  let survivors = List.fold_left (fun a r -> a + r.survivors) 0 reps in
  let nmeasures = float_of_int (List.length wl.measures) in
  let all = plain @ reps in
  let attempted, failed = counts all (check built wl plan all) in
  let layers =
    Setup.layer_metrics builds model
    @ [
        metric "sweep.columns.ns_per_point" "ns"
          (med (fun r -> ns r.prepare_s /. float_of_int r.n));
        metric "slp.eval_batch.ns_per_point" "ns" (ns kernel_s /. n);
        metric "sweep.finish.ns_per_point" "ns" (ns finish_s /. n);
        metric "sweep.engine.ns_per_point" "ns"
          (ns (chunk_total -. kernel_s -. finish_s) /. n);
        metric "stats.ns_per_value" "ns"
          (med (fun r -> ns r.finish_s /. (float_of_int r.n *. nmeasures)));
        metric "sweep.report_s" "s" (med (fun r -> r.report_s));
        metric "gc.minor_words_per_point" "words"
          (med (fun r -> r.minor_words /. float_of_int r.n));
        metric "gc.major_collections" "count"
          (med (fun r -> float_of_int r.major_collections));
        metric "sweep.survivor_frac" "ratio"
          (float_of_int survivors /. float_of_int points);
        metric "trace.overhead_frac" "ratio"
          ((per_point_rate plain /. per_point_rate reps) -. 1.0);
      ]
  in
  { correct = failed = 0; attempted; failed; metrics = layers }
