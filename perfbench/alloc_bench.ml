(* The allocation layer, driven from outside: allocate each input under
   a family, prove the result with Verify.Check, simulate it against
   the unallocated source's reference outcome, and accumulate the
   timings, Stats rows and counters the metrics are computed from.

   kernels and large run these steps in timed passes over their corpus;
   serve runs one pass over its routine universe to obtain the cold
   reference texts its responses are compared against and its Stats
   rows, then times the verifier in passes over the briggs texts. *)

module Allocator = Remat.Allocator
module Stats = Remat.Stats
module Counts = Sim.Counts

type item = {
  name : string;
  src : Iloc.Cfg.t;
  instrs : int;
  outcome : Sim.Interp.outcome;  (** reference run of the source *)
}

let make_item name src =
  let outcome = Sim.Interp.run src in
  { name; src; instrs = Scale_bench.Scale.n_instrs src; outcome }

type family = Briggs | Ssa

let mode = function
  | Briggs -> Remat.Mode.Briggs_remat
  | Ssa -> Remat.Mode.Ssa_remat

let family_name = function Briggs -> "briggs" | Ssa -> "ssa"

(* The phases whose Stats rows the metrics report, by family. *)
let phases = function
  | Briggs ->
      Stats.
        [ Cfa; Renum; Liveness; Build; Coalesce; Costs; Simplify; Select; Spill ]
  | Ssa -> Stats.[ Cfa; Renum; Liveness; Costs; Spill; Select; Coalesce ]

let phase_name = function
  | Stats.Liveness -> "live"
  | p -> Stats.phase_to_string p

(* Dynamic counts of the categories the paper's Table 1 reports. *)
let categories =
  Iloc.Instr.[ Cat_load; Cat_store; Cat_copy; Cat_ldi; Cat_addi ]

(* Everything measured for one family over a run of passes.  Sums are
   per run; [passes] turns them into per-pass figures. *)
type acc = {
  family : family;
  machine : Remat.Machine.t;
  mutable passes : int;
  mutable alloc_ms : float list;  (** one sample per allocation *)
  mutable alloc_s : float;
  mutable instrs : int;  (** input instructions allocated *)
  mutable verify_ms : float list;
  mutable verify_s : float;
  mutable verify_instrs : int;
  mutable uses_checked : int;
  mutable remats_checked : int;
  phase_s : (Stats.phase, float) Hashtbl.t;
  mutable minor_words : float;
  mutable major_words : float;
  counters : (Stats.counter, int) Hashtbl.t;
  mutable rounds : int;
  mutable spilled_memory : int;
  mutable spilled_remat : int;
  mutable coalesced_copies : int;
  (* Dynamic counts of one pass's allocated code, and of the same
     routines allocated on the 128+128 machine (the spill-free
     baseline of the paper's Table 1). *)
  alloc_counts : Counts.t array;
  huge_counts : Counts.t array;
  proved : string option array;
      (** printed output of each item's proved allocation *)
}

let create family machine n_items =
  {
    family;
    machine;
    passes = 0;
    alloc_ms = [];
    alloc_s = 0.;
    instrs = 0;
    verify_ms = [];
    verify_s = 0.;
    verify_instrs = 0;
    uses_checked = 0;
    remats_checked = 0;
    phase_s = Hashtbl.create 16;
    minor_words = 0.;
    major_words = 0.;
    counters = Hashtbl.create 16;
    rounds = 0;
    spilled_memory = 0;
    spilled_remat = 0;
    coalesced_copies = 0;
    alloc_counts = Array.init n_items (fun _ -> Counts.create ());
    huge_counts = Array.init n_items (fun _ -> Counts.create ());
    proved = Array.make n_items None;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let bumpf tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* The allocate span carries the Stats rows as args: per (round, phase)
   seconds and words, exactly as recorded — no start times are made up
   for them. *)
let stats_args (r : Allocator.result) =
  List.concat_map
    (fun (round, phase, s, minor, major) ->
      let k = Printf.sprintf "r%d.%s" round (phase_name phase) in
      [
        (k ^ "_s", Util.json_float s);
        (k ^ "_minor_words", Util.json_float minor);
        (k ^ "_major_words", Util.json_float major);
      ])
    (Stats.by_phase r.Allocator.stats)

let describe exn =
  match exn with
  | Allocator.Allocation_error m -> "allocation error: " ^ m
  | Remat.Spill_code.Pressure_too_high m -> "pressure too high: " ^ m
  | Sim.Interp.Runtime_error m -> "runtime error: " ^ m
  | e -> Printexc.to_string e

(* Run Verify.Check on [output], an allocation of [item]; true on a
   proof.  With [~measured] its time and counts go into the figures. *)
let verify acc ~measured (item : item) output =
  let m = acc.machine in
  let fam = family_name acc.family in
  let verdict, dt =
    Util.timed (fun () ->
        Trace.span ("verify." ^ fam) (fun () ->
            Verify.Check.routine ~input:item.src ~output
              ~k_int:m.Remat.Machine.k_int ~k_float:m.Remat.Machine.k_float))
  in
  match verdict with
  | Ok r ->
      Util.attempt true "";
      if measured then begin
        acc.verify_ms <- (dt *. 1000.) :: acc.verify_ms;
        acc.verify_s <- acc.verify_s +. dt;
        acc.verify_instrs <- acc.verify_instrs + item.instrs;
        acc.uses_checked <- acc.uses_checked + r.Verify.Check.uses_checked;
        acc.remats_checked <- acc.remats_checked + r.Verify.Check.remats_checked
      end;
      true
  | Error errs ->
      Util.attempt false
        (Printf.sprintf "verify %s %s: %s" fam item.name
           (String.concat "; " (List.map Verify.Error.to_string errs)));
      false

(* Simulate an allocation of item [i] against the source's outcome and
   keep its dynamic counts for the spill-cost figures. *)
let simulate acc i (item : item) (res : Allocator.result) =
  let fam = family_name acc.family in
  let what = Printf.sprintf "simulate %s %s" fam item.name in
  match
    Trace.span ("simulate." ^ fam) (fun () -> Sim.Interp.run res.Allocator.cfg)
  with
  | exception e ->
      Util.attempt false (what ^ ": " ^ describe e);
      false
  | o ->
      acc.alloc_counts.(i) <- o.Sim.Interp.counts;
      let same = Sim.Interp.outcome_equal o item.outcome in
      Util.attempt same (what ^ ": outcome differs from the source's");
      same

let record acc (item : item) (res : Allocator.result) dt =
  acc.alloc_ms <- (dt *. 1000.) :: acc.alloc_ms;
  acc.alloc_s <- acc.alloc_s +. dt;
  acc.instrs <- acc.instrs + item.instrs;
  List.iter
    (fun (_, phase, s, minor, major) ->
      bumpf acc.phase_s phase s;
      acc.minor_words <- acc.minor_words +. minor;
      acc.major_words <- acc.major_words +. major)
    (Stats.by_phase res.Allocator.stats);
  List.iter
    (fun (_, c, n) -> bump acc.counters c n)
    (Stats.counters res.Allocator.stats);
  acc.rounds <- acc.rounds + res.Allocator.rounds;
  acc.spilled_memory <- acc.spilled_memory + res.Allocator.spilled_memory;
  acc.spilled_remat <- acc.spilled_remat + res.Allocator.spilled_remat;
  acc.coalesced_copies <- acc.coalesced_copies + res.Allocator.coalesced_copies

(* Allocate item [i].  The first allocation of an item by this
   accumulator is proved by Verify.Check and simulated against the
   source; it also warms the heap and caches, so it is measured only
   with [~measure].  A later allocation is measured and must print byte
   for byte as the proved one did (allocation is deterministic, so a
   repeat is proved by identity).  Measured briggs output is verified
   again, since its verifier time is the verify_ms_p50 metric; SSA
   output, whose proofs take seconds on large, is verified once. *)
let run_item ~measure acc i (item : item) =
  let fam = family_name acc.family in
  match
    Util.timed (fun () ->
        Trace.span_with ("allocate." ^ fam)
          (fun () ->
            Allocator.allocate ~mode:(mode acc.family) ~machine:acc.machine
              item.src)
          stats_args)
  with
  | exception e ->
      Util.attempt false
        (Printf.sprintf "allocate %s %s: %s" fam item.name (describe e))
  | res, dt -> (
      Util.attempt true "";
      let text = Iloc.Printer.routine_to_string res.Allocator.cfg in
      match acc.proved.(i) with
      | Some proved ->
          record acc item res dt;
          if acc.family = Briggs then
            ignore (verify acc ~measured:true item res.Allocator.cfg);
          Util.attempt (String.equal text proved)
            (Printf.sprintf "repeat %s %s: output differs from the proved one"
               fam item.name)
      | None ->
          if measure then record acc item res dt;
          let proved = verify acc ~measured:measure item res.Allocator.cfg in
          if simulate acc i item res && proved then acc.proved.(i) <- Some text)

(* The spill-free baseline: each item allocated by the same family on
   the 128+128 machine and simulated.  Deterministic, so it is run once
   per process, after the timed passes. *)
let huge_baseline acc items =
  Array.iteri
    (fun i (item : item) ->
      let what = Printf.sprintf "baseline %s %s" (family_name acc.family) item.name in
      match
        Allocator.allocate ~mode:(mode acc.family) ~machine:Remat.Machine.huge
          item.src
      with
      | exception e -> Util.attempt false (what ^ ": " ^ describe e)
      | res -> (
          match Sim.Interp.run res.Allocator.cfg with
          | exception e -> Util.attempt false (what ^ ": " ^ describe e)
          | o ->
              Util.attempt
                (Sim.Interp.outcome_equal o item.outcome)
                (what ^ ": outcome differs from the source's");
              acc.huge_counts.(i) <- o.Sim.Interp.counts))
    items

(* One pass over the items in the given order; with [~measure] it
   counts in the per-pass figures. *)
let pass ~measure accs items order =
  Array.iter
    (fun i ->
      let item = items.(i) in
      Trace.span ("routine " ^ item.name) (fun () ->
          List.iter (fun acc -> run_item ~measure acc i item) accs))
    order;
  if measure then List.iter (fun acc -> acc.passes <- acc.passes + 1) accs

(* The proving pass: every item's first allocation. *)
let prove_pass ~measure accs items =
  Trace.span "proving pass" (fun () ->
      pass ~measure accs items (Array.init (Array.length items) Fun.id))

(* A measured pass over items already proved. *)
let measured_pass accs items order = pass ~measure:true accs items order

(* A measured pass that only verifies: [outputs.(i)] is an allocation
   of item [i] by [acc]'s family. *)
let verify_pass acc items outputs order =
  Array.iter
    (fun i -> ignore (verify acc ~measured:true items.(i) outputs.(i)))
    order;
  acc.passes <- acc.passes + 1

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let sum_counts f counts = Array.fold_left (fun a c -> a + f c) 0 counts

(* Σ cycles of the allocated code minus Σ cycles of the spill-free
   baseline: the paper's Table 1 spill cost. *)
let spill_cycles acc =
  sum_counts Counts.cycles acc.alloc_counts
  - sum_counts Counts.cycles acc.huge_counts

let category_delta acc cat =
  let get c = Counts.get c cat in
  sum_counts get acc.alloc_counts - sum_counts get acc.huge_counts

let per_pass acc x = x /. float_of_int (max 1 acc.passes)
let counter acc c = Option.value ~default:0 (Hashtbl.find_opt acc.counters c)
let phase_sum acc = Hashtbl.fold (fun _ s a -> a +. s) acc.phase_s 0.

let kinstr_per_s acc =
  if acc.alloc_s > 0. then float_of_int acc.instrs /. acc.alloc_s /. 1000.
  else Float.nan
