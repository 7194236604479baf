(* Shared plumbing for the benchmark: clocks and order statistics, the
   in-memory span recorder of the traced run, /proc readers, private
   working directories, and spawned-process hygiene. *)

let now = Unix.gettimeofday

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bench_failure m)) fmt

(* What one run reports: the contract's result line. *)
type metric = { m_name : string; m_value : float; m_unit : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile 0.5 samples

let mean samples =
  if Array.length samples = 0 then nan
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* Least-squares slope of y over x. *)
let slope xs ys =
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i x ->
      num := !num +. ((x -. mx) *. (ys.(i) -. my));
      den := !den +. ((x -. mx) *. (x -. mx)))
    xs;
  if !den = 0.0 then nan else !num /. !den

(* ------------------------------------------------------------------ *)
(* Spans: recorded only in the traced run, around calls into the
   library's public API; kept in memory and written out at exit. *)

type span = { name : string; start : float; stop : float }

let tracing = ref false
let spans : span list ref = ref []

let record name start stop =
  if !tracing then spans := { name; start; stop } :: !spans

let span name f =
  if not !tracing then f ()
  else
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record name t0 (now ())) f

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let t0 =
        List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans
      in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.start -. t0) *. 1e6)
            ((s.stop -. s.start) *. 1e6))
        (List.rev !spans);
      output_string oc "]\n")

(* ------------------------------------------------------------------ *)
(* /proc readers *)

(* A "Key:   1234 kB" field of /proc/<pid>/status, in MB. *)
let status_mb ?(pid = "self") key =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:(key ^ ":") line ->
          Scanf.sscanf
            (String.sub line (String.length key + 1)
               (String.length line - String.length key - 1))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> fail "no %s in /proc/%s/status" key pid
      in
      loop ())

(* A fixed allocate-and-sort loop, memory-bound like the workloads: a
   host-drift diagnostic printed with every run, never a metric and never
   used to normalize one. *)
let calibration_ms () =
  let rng = Obs.Rng.create 1 in
  let t0 = now () in
  for _ = 1 to 2 do
    let a = Array.init 100_000 (fun _ -> Obs.Rng.float rng) in
    Array.sort Float.compare a
  done;
  (now () -. t0) *. 1e3

(* ------------------------------------------------------------------ *)
(* Private directories and spawned processes.  Files live under
   [work_root] and children are registered as soon as they exist; both are
   released by [cleanup], which runs on every exit path: normal return,
   exception, and SIGINT/SIGTERM. *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let children : int list ref = ref []

(* Per-process working root, relative to the working directory so Unix
   socket paths stay short whatever the checkout's absolute path. *)
let work_root = Printf.sprintf ".perfbench-run/%d" (Unix.getpid ())

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let d = Filename.concat work_root (Printf.sprintf "%s-%d" label !n) in
    mkdir_p d;
    d

(* The child inherits this process's environment, private kernel cache
   directory included. *)
let spawn ~stderr_to prog args =
  let err = Unix.openfile stderr_to [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err;
        Unix.close devnull)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) devnull devnull err)
  in
  children := pid :: !children;
  pid

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
    children := List.filter (( <> ) pid) !children;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* SIGTERM, wait up to [grace] seconds, SIGKILL, reap. *)
let stop ?(grace = 5.0) pid =
  if List.mem pid !children then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. grace in
    while alive pid && now () < deadline do
      Unix.sleepf 0.005
    done;
    if alive pid then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      children := List.filter (( <> ) pid) !children
    end
  end

let cleanup () =
  List.iter (fun pid -> stop pid) !children;
  rm_rf work_root;
  (* The shared parent goes too once no other run still uses it. *)
  try Unix.rmdir ".perfbench-run" with Unix.Unix_error _ -> ()

let install_cleanup () =
  at_exit cleanup;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore
