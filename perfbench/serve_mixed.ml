(* serve-mixed: one `awesym serve --workers 1` daemon holding the op-amp
   artifact, two connections from two threads of this process.  Client A
   sends 1-point evals (the latency-sensitive class) on a seeded open-loop
   schedule until client B, a closed loop like a distributed-sweep
   coordinator, has worked through a fixed budget of default-measure
   sweep chunks; the first error reply stops both.  The budget is fixed,
   not a time window, because the daemon's memory grows with the chunks
   it has served. *)

module Model = Awesymbolic.Model
module Client = Serve.Client
module Protocol = Serve.Protocol
module Engine = Sweep.Engine
module Json = Obs.Json
open Harness

let setup_reps = 15

(* Chunks use the engine's default block (256 points), the size that
   `awesym sweep` and distributed coordinators send; 150 per second of
   --seconds. *)
let chunks_per_second = 150.0
let rss_every = 25

type daemon = { pid : int; addr : string; model_path : string; log : string }

let log_tail d =
  match In_channel.with_open_text d.log In_channel.input_all with
  | s -> String.trim s
  | exception Sys_error _ -> ""

let ok_or what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Awesym_error.to_string e)

(* Poll until the daemon accepts a connection, failing fast if it died. *)
let connect d =
  let deadline = now () +. 30.0 in
  let rec loop () =
    match Client.connect d.addr with
    | Ok c ->
      Client.set_timeout c 60.0;
      c
    | Error _ when now () < deadline && alive d.pid ->
      Unix.sleepf 0.002;
      loop ()
    | Error e ->
      fail "daemon at %s unreachable (%s): %s" d.addr (Awesym_error.to_string e)
        (log_tail d)
  in
  loop ()

(* Deck -> cold build + compile -> artifact -> daemon -> first eval reply. *)
let setup_one ~awesym circuit rng =
  let t0 = now () in
  let built = Setup.cold (Setup.variant circuit rng) in
  let dir = fresh_dir "serve" in
  let d =
    {
      pid = 0;
      addr = "unix:" ^ Filename.concat dir "d.sock";
      model_path = Filename.concat dir "opamp.awm";
      log = Filename.concat dir "serve.log";
    }
  in
  span "artifact.save" (fun () -> Model.save built.Setup.model d.model_path);
  let pid =
    spawn ~stderr_to:d.log awesym
      [ "serve"; "--workers"; "1"; "--jobs"; "1"; "--listen"; d.addr ]
  in
  let d = { d with pid } in
  let c = span "serve.connect" (fun () -> connect d) in
  let nominal = Model.nominal_values built.Setup.model in
  ignore
    (span "serve.first_eval" (fun () ->
         ok_or "first eval" (Client.eval c ~model:d.model_path [| nominal |])));
  Client.close c;
  (built, d, now () -. t0)

type served = {
  evals : (int * Protocol.eval_result) list;  (** pool index, reply *)
  eval_lat : float array;  (** seconds from an eval falling due to its reply *)
  transport : float list;  (** eval round trip minus daemon trace time *)
  chunks : Protocol.chunk_reply list;
  errors : int;
  wall : float;
  rss : (float * float) list;  (** (chunks served, daemon VmRSS MB) *)
  traces : Json.t list;
}

let num_field name j =
  match Json.member name j with Some (Json.Num v) -> v | _ -> nan

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> ""

(* The daemon's own request traces, deduplicated by trace id; the ring
   holds 256, so a third connection drains it while the load runs. *)
let poll_traces c seen =
  match Client.traces c ~limit:256 with
  | Error _ -> ()
  | Ok records ->
    List.iter
      (fun r ->
        let id = str_field "trace_id" r in
        if str_field "op" r <> "trace" && not (Hashtbl.mem seen id) then
          Hashtbl.replace seen id r)
      records

(* Client A's schedule: evals fall due at seeded gaps of 10-40 ms (40 per
   second on average), open loop, so they land at every phase of the
   chunk stream instead of locking onto it.  Each eval is timed from
   when it fell due, so a late send counts against the one that waited. *)
let eval_gap rng = 0.010 +. (0.030 *. Obs.Rng.float rng)

(* Run [f] in a thread; the returned function joins it and returns its
   result or re-raises its exception. *)
let thread f =
  let r = ref None in
  let t = Thread.create (fun () -> r := Some (try Ok (f ()) with e -> Error e)) () in
  fun () ->
    Thread.join t;
    match !r with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> fail "client thread ended without a result"

(* Both clients are threads of this one domain: the client adds no
   domain of its own to the daemon's two on a small host, and no
   cross-domain stop-the-world on every minor collection. *)
let load d ~traced ~pool ~request ~budget ~chunks_before ~seed =
  let done_ = Atomic.make false in
  let errors = Atomic.make 0 in
  let t_first = now () in
  let a =
    thread (fun () ->
        let c = connect d in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let rng = Obs.Rng.create (seed + 11) in
        let evals = ref [] and lat = ref [] and ids = ref [] in
        let due = ref t_first and late = ref 0.0 in
        let k = ref 0 in
        let continue_ () =
          due := !due +. eval_gap rng;
          let wait = !due -. now () in
          if wait > 0.0 then Unix.sleepf wait else late := Float.max !late (-.wait);
          not (Atomic.get done_)
        in
        while continue_ () do
          let i = !k mod Array.length pool in
          let trace =
            if traced then
              Some { Protocol.trace_id = Client.new_trace_id (); parent_span = "perfbench.eval" }
            else None
          in
          let t0 = now () in
          (match Client.eval c ?trace ~model:d.model_path [| pool.(i) |] with
          | Ok r ->
            let t1 = now () in
            evals := (i, r) :: !evals;
            lat := (t1 -. !due) :: !lat;
            Option.iter (fun t -> ids := (t.Protocol.trace_id, t1 -. t0) :: !ids) trace
          | Error e ->
            prerr_endline ("perfbench: eval failed: " ^ Awesym_error.to_string e);
            Atomic.incr errors;
            Atomic.set done_ true);
          incr k
        done;
        (List.rev !evals, Array.of_list (List.rev !lat), !ids, now (), !late))
  in
  let b =
    thread (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set done_ true) @@ fun () ->
        let c = connect d in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let replies = ref [] and rss = ref [] in
        let i = ref 0 in
        while !i < budget && not (Atomic.get done_) do
          (match Client.sweep_chunk c (request !i) with
          | Ok r -> replies := r :: !replies
          | Error e ->
            prerr_endline ("perfbench: chunk failed: " ^ Awesym_error.to_string e);
            Atomic.incr errors;
            Atomic.set done_ true);
          incr i;
          if !i mod rss_every = 0 then
            rss :=
              ( float_of_int (chunks_before + !i),
                status_mb ~pid:(string_of_int d.pid) "VmRSS" )
              :: !rss
        done;
        (List.rev !replies, List.rev !rss, now ()))
  in
  let seen = Hashtbl.create 1024 in
  if traced then begin
    let c = connect d in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    while not (Atomic.get done_) do
      poll_traces c seen;
      Unix.sleepf 0.25
    done;
    poll_traces c seen
  end;
  let evals, eval_lat, ids, t_a, late = a () in
  let chunks, rss, t_b = b () in
  if late > 0.0 then
    Printf.eprintf "perfbench: serve-mixed: eval generator ran up to %.1f ms late\n%!"
      (late *. 1e3);
  let transport =
    List.filter_map
      (fun (id, dt) ->
        Option.map (fun r -> dt -. (num_field "dur_us" r *. 1e-6)) (Hashtbl.find_opt seen id))
      ids
  in
  {
    evals;
    eval_lat;
    transport;
    chunks;
    errors = Atomic.get errors;
    wall = Float.max t_a t_b -. t_first;
    rss;
    traces = Hashtbl.fold (fun _ r acc -> r :: acc) seen [];
  }

let chunk_points s =
  List.fold_left
    (fun acc r ->
      acc + int_of_float (num_field "len" r.Protocol.cr_record))
    0 s.chunks

let points_per_s s =
  float_of_int (List.length s.evals + chunk_points s) /. s.wall

(* Served evals bit-identical to offline Slp.eval_batch; served chunk
   records byte-identical to local Engine.eval_chunk under the same key.
   Returns (checks made, checks failed). *)
let check model pool prep s =
  let made = ref 0 and bad = ref 0 in
  let complain fmt =
    Printf.ksprintf
      (fun m ->
        incr bad;
        prerr_endline ("perfbench: check failed: " ^ m))
      fmt
  in
  let nsym = Array.length pool.(0) in
  let idx = Array.of_list (List.map fst s.evals) in
  let cols = Array.init nsym (fun k -> Array.map (fun i -> pool.(i).(k)) idx) in
  let offline = Symbolic.Slp.eval_batch ~jobs:1 (Model.program model) cols in
  List.iteri
    (fun j (_, r) ->
      incr made;
      let row = r.Protocol.moments.(0) in
      if
        Array.length row <> Array.length offline
        || not
             (Array.for_all Fun.id
                (Array.mapi
                   (fun m v -> Int64.bits_of_float v = Int64.bits_of_float offline.(m).(j))
                   row))
      then complain "served eval %d differs from offline Slp.eval_batch" j)
    s.evals;
  let key = Engine.prep_key prep in
  List.iter
    (fun r ->
      incr made;
      let local = Engine.eval_chunk prep r.Protocol.cr_chunk in
      if r.Protocol.cr_key <> key then complain "chunk %d: key skew" r.Protocol.cr_chunk
      else if
        Json.to_string (Engine.chunk_result_to_json local)
        <> Json.to_string r.Protocol.cr_record
      then complain "chunk %d differs from local Engine.eval_chunk" r.Protocol.cr_chunk)
    s.chunks;
  (!made, !bad)

let plan_for circuit model ~budget =
  Sweep.Plan.make
    (Sweep.Plan.Monte_carlo (budget * Symbolic.Slp.default_block))
    (Setup.axes circuit model)

let request_for ~model_path ~plan ~seed prep i =
  {
    Protocol.sc_model = model_path;
    sc_plan = Sweep.Plan.to_json plan;
    sc_seed = seed;
    sc_block = Engine.prep_block prep;
    sc_measures = List.map Engine.measure_name Engine.default_measures;
    sc_specs = [];
    sc_policy = Engine.policy_name Engine.Skip;
    sc_chunk = i;
    sc_key = Engine.prep_key prep;
    sc_deadline_ms = None;
  }

let eval_pool circuit model ~seed =
  let rng = Obs.Rng.create (seed + 7) in
  let nominals = Model.nominal_values model in
  Array.init 1024 (fun _ ->
      Array.map
        (fun v ->
          v *. (1.0 +. (circuit.Setup.pct /. 100.0 *. ((2.0 *. Obs.Rng.float rng) -. 1.0))))
        nominals)

let stats_pair c =
  let j = ok_or "stats" (Client.stats c) in
  (num_field "points" j, num_field "batches" j)

(* Client-side codec cost per operation: encode each request the load
   sent and decode each reply it received, as the client does. *)
let codec_us ~model_path ~request ~pool s =
  let enc = ref 0.0 and dec = ref 0.0 and ops = ref 0 in
  let time_codec req resp =
    let reply = Json.to_string (Protocol.response_to_json ~id:(Json.Num 1.0) resp) in
    let t0 = now () in
    ignore (Json.to_string (Protocol.request_to_json ~id:(Json.Num 1.0) req));
    let t1 = now () in
    (match Json.of_string reply with
    | Ok j -> ignore (Protocol.response_of_json j)
    | Error m -> fail "reply does not parse: %s" m);
    let t2 = now () in
    enc := !enc +. (t1 -. t0);
    dec := !dec +. (t2 -. t1);
    incr ops
  in
  List.iter
    (fun (i, r) ->
      time_codec
        (Protocol.Eval { Protocol.model = model_path; points = [| pool.(i) |]; deadline_ms = None })
        (Protocol.R_eval r))
    s.evals;
  List.iter
    (fun r -> time_codec (Protocol.Sweep_chunk (request r.Protocol.cr_chunk)) (Protocol.R_chunk r))
    s.chunks;
  let n = float_of_int (Int.max 1 !ops) in
  (!enc /. n *. 1e6, !dec /. n *. 1e6)

(* p50 (us) of one named span over the daemon traces of op [op]. *)
let trace_p50 traces ~op name =
  let durs =
    List.concat_map
      (fun r ->
        if str_field "op" r <> op then []
        else
          match Json.member "spans" r with
          | Some (Json.List spans) ->
            List.filter_map
              (fun sp ->
                if str_field "name" sp = name then Some (num_field "dur_us" sp) else None)
              spans
          | _ -> [])
      traces
  in
  if durs = [] then 0.0 else median (Array.of_list durs)

let run ~awesym ~seed ~seconds ~traced =
  if not (Sys.file_exists awesym) then fail "awesym binary not found at %s" awesym;
  let circuit = Setup.opamp () in
  let rng = Obs.Rng.create seed in
  if traced then tracing := true;
  let rec setups k acc =
    let ((_, d, _) as s) = setup_one ~awesym circuit rng in
    if k = setup_reps - 1 then List.rev (s :: acc)
    else begin
      stop d.pid;
      setups (k + 1) (s :: acc)
    end
  in
  let reps = setups 0 [] in
  let built, d, _ = List.nth reps (setup_reps - 1) in
  let model = built.Setup.model in
  let pool = eval_pool circuit model ~seed in
  let budget = Int.max 4 (int_of_float (chunks_per_second *. seconds)) in
  let phase ~budget ~seed ~traced ~chunks_before =
    let plan = plan_for circuit model ~budget in
    let prep =
      Engine.prepare ~seed ~jobs:1 ~measures:Engine.default_measures model plan
    in
    let request = request_for ~model_path:d.model_path ~plan ~seed prep in
    tracing := traced;
    let s = load d ~traced ~pool ~request ~budget ~chunks_before ~seed in
    (s, prep, request)
  in
  let setup_s = median (Array.of_list (List.map (fun (_, _, t) -> t) reps)) in
  if not traced then begin
    let s, prep, _ = phase ~budget ~seed ~traced:false ~chunks_before:0 in
    let peak_rss_mb = status_mb ~pid:(string_of_int d.pid) "VmHWM" in
    stop d.pid;
    let made, bad = check model pool prep s in
    let lat_us = Array.map (fun x -> x *. 1e6) s.eval_lat in
    let attempted = setup_reps + List.length s.evals + List.length s.chunks + s.errors + made in
    let failed = s.errors + bad in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "points_per_s" "1/s" (points_per_s s);
          metric "latency_p50_us" "us" (median lat_us);
          metric "latency_p90_us" "us" (quantile 0.9 lat_us);
          metric "peak_rss_mb" "MB" peak_rss_mb;
        ];
    }
  end
  else begin
    let half = Int.max 2 (budget / 2) in
    let plain, prep0, _ = phase ~budget:half ~seed ~traced:false ~chunks_before:0 in
    let c = connect d in
    let p0, b0 = stats_pair c in
    let s, prep, request =
      phase ~budget:half ~seed:(seed + 1) ~traced:true ~chunks_before:half
    in
    let p1, b1 = stats_pair c in
    Client.close c;
    stop d.pid;
    let made0, bad0 = check model pool prep0 plain in
    let made1, bad1 = check model pool prep s in
    let bad = bad0 + bad1 in
    let _, kernel_s, finish_s = Sweeps.replay model Engine.default_measures prep in
    let n = float_of_int (Engine.prep_points prep) in
    let rss = Array.of_list (plain.rss @ s.rss) in
    let failures =
      List.fold_left
        (fun acc r ->
          acc + List.length (Engine.chunk_failures (Engine.chunk_result_of_json prep r.Protocol.cr_record)))
        0 s.chunks
    in
    let enc_us, dec_us = codec_us ~model_path:d.model_path ~request ~pool s in
    let builds = List.map (fun (b, _, _) -> b) reps in
    let attempted =
      setup_reps + List.length s.evals + List.length s.chunks + List.length plain.evals
      + List.length plain.chunks + s.errors + plain.errors + made0 + made1
    in
    let failed = s.errors + plain.errors + bad in
    let p50 = trace_p50 s.traces in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        Setup.layer_metrics builds model
        @ [
            metric "slp.eval_batch.ns_per_point" "ns" (kernel_s *. 1e9 /. n);
            metric "sweep.finish.ns_per_point" "ns" (finish_s *. 1e9 /. n);
            metric "serve.parse.us_p50" "us" (p50 ~op:"eval" "serve.parse");
            metric "registry.lookup.us_p50" "us" (p50 ~op:"eval" "serve.registry.lookup");
            metric "batch.enqueue.us_p50" "us" (p50 ~op:"eval" "serve.batch.enqueue");
            metric "queue.wait.us_p50" "us" (p50 ~op:"eval" "serve.queue.wait");
            metric "kernel.eval.us_p50" "us" (p50 ~op:"eval" "serve.kernel.eval");
            metric "respond.us_p50" "us" (p50 ~op:"eval" "serve.respond");
            metric "serve.sweep_chunk.us_p50" "us" (p50 ~op:"sweep_chunk" "serve.sweep.chunk");
            metric "serve.batch_points_mean" "count" ((p1 -. p0) /. (b1 -. b0));
            metric "serve.transport.us_p50" "us"
              (if s.transport = [] then 0.0
               else median (Array.of_list s.transport) *. 1e6);
            metric "protocol.encode_us" "us" enc_us;
            metric "protocol.decode_us" "us" dec_us;
            metric "serve.rss_growth_mb_per_1k_chunks" "MB"
              (slope (Array.map fst rss) (Array.map snd rss) *. 1000.0);
            metric "sweep.survivor_frac" "ratio"
              (1.0 -. (float_of_int failures /. float_of_int (chunk_points s)));
            metric "trace.overhead_frac" "ratio" ((points_per_s plain /. points_per_s s) -. 1.0);
          ];
    }
  end
