(** The decoupled SSA allocation pipeline ([Mode.Ssa_remat] /
    [Mode.Ssa_no_remat]), after Bouchez–Darte–Rastello, "Spill
    Everywhere under SSA".

    Where Chaitin–Briggs interleaves spilling with coloring (a failed
    select round triggers spill code and a full rebuild), this pipeline
    decouples them:

    + {e Spill on SSA form} until MaxLive ≤ k per class and block — on
      SSA, MaxLive is the {e exact} pressure criterion.  Spilling is
      "everywhere" (every use reloads or rematerializes into a fresh
      temporary, every surviving definition stores), directed by the
      same {!Remat_analysis} tags as the Chaitin–Briggs pipeline: a
      never-killed value is recomputed before each use instead of
      stored.  A spilled φ-destination is lowered to a {e memory φ}:
      the φ disappears and each predecessor stores the edge's argument
      into the destination's slot, with slot-level parallel-copy
      ordering so a cyclic memory permutation on a back edge cannot
      read an already-overwritten slot.
    + {e Chordal coloring}: the interference graph of a strict-SSA
      routine is chordal, so a greedy walk of the dominator tree in
      preorder, assigning each value the lowest free color of its class
      (biased toward φ-argument and copy-source colors, which is what
      coalesces the φ-congruence classes at destruction), needs exactly
      MaxLive colors — never more, never a spill round.
    + {e SSA destruction on colored code}: φs become parallel copies of
      physical registers on each incoming edge
      ({!Ssa.Destruct.run_colored}); identity moves — set up by the
      biased coloring — are dropped as coalesced.

    The two pipelines share the ILOC substrate, liveness, dominance,
    loop weights and the remat tag lattice, but make independent spill
    and color decisions — which is what makes differentially testing
    them against each other informative (see [lib/fuzz]). *)

type result = {
  cfg : Iloc.Cfg.t;  (** allocated routine: φ-free, physical registers *)
  rounds : int;  (** spill rounds + 1, like the Chaitin–Briggs count *)
  spilled_memory : int;  (** values spilled through a frame slot *)
  spilled_remat : int;  (** values spilled by rematerialization *)
  spill_slots : int;
  n_values : int;  (** SSA values before spilling *)
  coalesced : int;
      (** φ-edge and copy moves that vanished because both sides got
          the same color *)
  max_live_int : int;
  max_live_float : int;
      (** MaxLive per class of the final (post-spill) SSA form — the
          chordal bound the coloring must meet *)
  max_colors_int : int;
  max_colors_float : int;
      (** colors the greedy walk actually used; the chordality property
          tested in [test/test_ssa_pipeline.ml] is
          [max_colors ≤ max_live ≤ k] per class *)
}

val cost_table :
  cap:int ->
  Iloc.Cfg.t ->
  Dataflow.Loops.t ->
  (Iloc.Reg.t -> Tag.t) ->
  float array
(** [cost_table ~cap cfg loops tag_of] — every value's spill cost, keyed
    by packed id ({!Iloc.Reg.hash}, [cap] from
    {!Dataflow.Liveness.Ssa.capacity}): each reload costs 2 and each
    rematerialization 1, each store 2, weighted by 10^loop-depth of the
    site; φ traffic is charged at the predecessor's weight.  Exported
    for the selection oracle property in [test/test_ssa_pipeline.ml]. *)

val select :
  Iloc.Cfg.t ->
  Dataflow.Liveness.Ssa.t ->
  cap:int ->
  k:(Iloc.Reg.cls -> int) ->
  cost:float array ->
  spillable:(Iloc.Reg.t -> bool) ->
  Iloc.Reg.Set.t * string option
(** One spill round's selection: the values to spill so that every
    program point fits [k] per class, and the first block (["block
    <label>"]) holding a point that cannot fit whatever is spilled.
    Exported for the oracle property that compares it with the dense
    selection kept in [test/reference.ml]. *)

val rewrite_spills :
  Iloc.Cfg.t ->
  chosen:Iloc.Reg.Set.t ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  infinite:unit Iloc.Reg.Tbl.t ->
  slots:int Iloc.Reg.Tbl.t ->
  slot_counter:int ref ->
  unit
(** Spill [chosen] everywhere, in place: reloads or rematerializations
    before uses, stores after definitions, memory φs for spilled φ
    destinations.  Exported so the oracle properties can check a second
    spill round. *)

val run :
  mode:Mode.t ->
  machine:Machine.t ->
  max_rounds:int ->
  stats:Stats.t ->
  Iloc.Cfg.t ->
  result
(** [run ~mode ~machine ~max_rounds ~stats input] allocates [input]
    (already validated; not mutated), splitting its critical edges
    first — timed, with dominance and loops, as round 0's [Cfa].  Raises
    {!Spill_code.Pressure_too_high} when some program point's
    irreducible pressure (instruction operands, φ-congruence traffic)
    exceeds the machine, and {!Allocator.Allocation_error} via the
    caller when [max_rounds] is exhausted. *)
