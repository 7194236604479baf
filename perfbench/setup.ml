(* The benchmark's circuits and the cold set-up path they share: deck in
   hand -> Model.build -> native kernel compiled into a private, empty
   cache and loaded.  Each set-up repetition builds a seeded variant of
   the circuit (one non-symbolic parasitic nudged by ~0.1%), so its
   moment program has a digest no earlier repetition compiled and the
   kernel compile is cold even within one process. *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Model = Awesymbolic.Model
module Sym = Symbolic.Symbol
open Harness

type circuit = {
  netlist : Netlist.t;  (** symbols marked *)
  nudged : string;  (** non-symbolic element varied per repetition *)
  pct : float;  (** Monte-Carlo tolerance band on every symbol *)
}

let mark nl names =
  List.fold_left (fun acc n -> Netlist.mark_symbolic acc n (Sym.intern n)) nl names

(* The paper's 170-element op-amp with its two symbols. *)
let opamp () =
  let g, c = Circuit.Builders.opamp_symbol_names in
  { netlist = mark (Circuit.Builders.opamp741 ()) [ g; c ]; nudged = "cpar_d1"; pct = 20.0 }

(* A 12x12 RC power grid with four symbolic elements: the source
   resistor, the far-corner load, and two grid resistors. *)
let mesh () =
  let nl = Circuit.Builders.rc_mesh ~rows:12 ~cols:12 ~r:10.0 ~c:1e-13 () in
  {
    netlist = mark nl [ "Rdrv"; "C11_11"; "Rh0_0"; "Rv6_6" ];
    nudged = "C0_1";
    pct = 10.0;
  }

let variant circuit rng =
  let scale = 1.0 +. (1e-3 *. (1.0 +. Obs.Rng.float rng)) in
  Netlist.map_elements
    (fun (e : Element.t) ->
      if e.Element.name = circuit.nudged then
        Element.with_value e (e.Element.value *. scale)
      else e)
    circuit.netlist

type built = {
  model : Model.t;
  netlist : Netlist.t;
  build_s : float;
  compile_s : float;
}

(* Refuse to time the interpreter: a declined native kernel is a named
   failure, never a silent fallback. *)
let require_native model =
  if not (Codegen.available (Model.program model)) then
    fail "native_kernel_unavailable: %s"
      (match Codegen.last_error () with
      | Some e -> Awesym_error.to_string e
      | None -> "provider declined")

(* One cold set-up: a fresh private kernel cache, then build + compile. *)
let cold netlist =
  Unix.putenv "AWESYM_CACHE_DIR" (fresh_dir "cache");
  let t0 = now () in
  let model = span "core.build" (fun () -> Model.build ~jobs:1 netlist) in
  let t1 = now () in
  span "codegen.compile" (fun () -> require_native model);
  let t2 = now () in
  { model; netlist; build_s = t1 -. t0; compile_s = t2 -. t1 }

(* Every symbol swept uniformly over nominal +- pct. *)
let axes circuit model =
  let nominals = Model.nominal_values model in
  Array.to_list
    (Array.mapi
       (fun k s ->
         {
           Sweep.Plan.name = Sym.name s;
           dist = Sweep.Dist.around ~nominal:nominals.(k) ~pct:circuit.pct;
         })
       (Model.symbols model))

(* Independent reference: full numeric AWE on the netlist with the
   symbols substituted, against the compiled moments at the same point.
   Returns the worst relative moment error. *)
let reference_error built point =
  let symbols = Model.symbols built.model in
  let nl =
    Netlist.map_elements
      (fun (e : Element.t) ->
        match e.Element.symbol with
        | Some s ->
          let k = ref (-1) in
          Array.iteri (fun i s' -> if Sym.name s' = Sym.name s then k := i) symbols;
          Element.set_stamp_value e point.(!k)
        | None -> e)
      built.netlist
  in
  let reference = Awe.Driver.analyze ~order:(Model.order built.model) nl in
  let compiled = Model.eval_moments built.model point in
  let worst = ref 0.0 in
  Array.iteri
    (fun k r ->
      if k < Array.length compiled then
        worst :=
          Float.max !worst
            (Float.abs (r -. compiled.(k)) /. Float.max (Float.abs r) 1e-300))
    reference.Awe.Driver.moments;
  !worst

(* Moments of the compiled and the numeric-AWE paths must agree to this
   relative tolerance. *)
let reference_rtol = 1e-9

(* The set-up layers of the traced run, over every set-up repetition. *)
let layer_metrics builds model =
  let med f = median (Array.of_list (List.map f builds)) in
  let path = Codegen.cache_path (Model.program model) in
  [
    metric "core.build_s" "s" (med (fun b -> b.build_s));
    metric "codegen.compile_s" "s" (med (fun b -> b.compile_s));
    metric "codegen.kernel_ops" "count" (float_of_int (Model.num_operations model));
    metric "codegen.cmxs_bytes" "B" (float_of_int (Unix.stat path).Unix.st_size);
  ]
