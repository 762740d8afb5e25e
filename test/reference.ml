(* The coloring core as it stood before the worklist/heap optimization,
   kept verbatim as an executable specification.  Property tests assert
   the production phases produce byte-identical results (same simplify
   stack, same colors, same coalesced routine), and the scale benchmark
   measures these as its "old" side — so the asymptotic claim is made
   against the real former code, not a reconstruction.

   [Renumber] is the structured renumber pass the allocator ran before
   the flat-native [Remat.Renumber.run_flat] replaced it: the oracle of
   the renumber A/B property in test_flat.

   Deliberately not kept in sync stylistically with lib/core: this code
   must stay what it is. *)

module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Interference = Remat.Interference
module Context = Remat.Context
module Stats = Remat.Stats
module Tag = Remat.Tag

module Simplify = struct
  (* O(n) whole-graph rescan per spill-candidate pick. *)
  let run (g : Interference.t) ~k ~costs =
    let n = Interference.n_nodes g in
    let deg = Array.init n (Interference.degree g) in
    let removed = Array.init n (fun i -> not (Interference.alive g i)) in
    let queued = Array.make n false in
    let k_of i = k (Reg.cls (Interference.reg g i)) in
    let trivial = Queue.create () in
    for i = 0 to n - 1 do
      if (not removed.(i)) && deg.(i) < k_of i then begin
        Queue.add i trivial;
        queued.(i) <- true
      end
    done;
    let stack = ref [] in
    let remaining = ref (Interference.n_alive g) in
    let remove i =
      removed.(i) <- true;
      decr remaining;
      stack := i :: !stack;
      Interference.iter_neighbors
        (fun nb ->
          if not removed.(nb) then begin
            deg.(nb) <- deg.(nb) - 1;
            if deg.(nb) < k_of nb && not queued.(nb) then begin
              Queue.add nb trivial;
              queued.(nb) <- true
            end
          end)
        g i
    in
    while !remaining > 0 do
      if not (Queue.is_empty trivial) then begin
        let i = Queue.pop trivial in
        if not removed.(i) then remove i
      end
      else begin
        let best = ref (-1) in
        let best_metric = ref infinity in
        for i = 0 to n - 1 do
          if not removed.(i) then begin
            let metric =
              if deg.(i) = 0 then 0. else costs.(i) /. float_of_int deg.(i)
            in
            if
              metric < !best_metric
              || !best = -1
              || (metric = !best_metric && deg.(i) > deg.(!best))
            then begin
              best := i;
              best_metric := metric
            end
          end
        done;
        remove !best
      end
    done;
    !stack
end

module Select = struct
  type t = { colors : int option array; spilled : int list }

  (* Forbidden-color lists rebuilt per node, List.mem lookahead. *)
  let run (g : Interference.t) ~k ~order ~partners =
    let n = Interference.n_nodes g in
    let colors = Array.make n None in
    let forbidden i =
      Interference.fold_neighbors
        (fun nb acc ->
          match colors.(nb) with Some c -> c :: acc | None -> acc)
        g i []
    in
    let pick i =
      let ki = k (Reg.cls (Interference.reg g i)) in
      let bad = forbidden i in
      let avail = Array.make ki true in
      List.iter (fun c -> if c < ki then avail.(c) <- false) bad;
      let available c = c >= 0 && c < ki && avail.(c) in
      let partner_color =
        List.find_opt
          (fun p ->
            match colors.(p) with Some c -> available c | None -> false)
          partners.(i)
        |> Option.map (fun p -> Option.get colors.(p))
      in
      match partner_color with
      | Some c -> Some c
      | None -> (
          let lookahead =
            List.find_map
              (fun p ->
                if colors.(p) <> None then None
                else begin
                  let pbad = forbidden p in
                  let rec first c =
                    if c >= ki then None
                    else if avail.(c) && not (List.mem c pbad) then Some c
                    else first (c + 1)
                  in
                  first 0
                end)
              partners.(i)
          in
          match lookahead with
          | Some c -> Some c
          | None ->
              let rec first c =
                if c >= ki then None
                else if avail.(c) then Some c
                else first (c + 1)
              in
              first 0)
    in
    List.iter (fun i -> colors.(i) <- pick i) order;
    let spilled =
      List.sort Int.compare (List.filter (fun i -> colors.(i) = None) order)
    in
    { colors; spilled }
end

module Coalesce = struct
  type phase = Unrestricted | Conservative
  type outcome = { changed : bool; coalesced : int }

  let norm_pair a b = if Reg.compare a b <= 0 then (a, b) else (b, a)

  let merge_into (ctx : Context.t) g ~keep ~drop =
    let keep_reg = Interference.reg g keep
    and drop_reg = Interference.reg g drop in
    Interference.merge g ~keep ~drop;
    Context.count ctx Stats.Node_merges 1;
    let tags = ctx.Context.tags and infinite = ctx.Context.infinite in
    let drop_tag =
      Option.value (Reg.Tbl.find_opt tags drop_reg) ~default:Tag.Bottom
    in
    let keep_tag =
      Option.value (Reg.Tbl.find_opt tags keep_reg) ~default:Tag.Bottom
    in
    Reg.Tbl.replace tags keep_reg (Tag.meet drop_tag keep_tag);
    Reg.Tbl.remove tags drop_reg;
    if not (Reg.Tbl.mem infinite drop_reg) then
      Reg.Tbl.remove infinite keep_reg;
    Reg.Tbl.remove infinite drop_reg

  (* Whole-CFG rescan per sweep; allocating Briggs test (neighbor-list
     append, sort_uniq, filter). *)
  let pass phase (ctx : Context.t) =
    let g = Context.graph ctx in
    let cfg = ctx.Context.cfg in
    Context.count ctx Stats.Coalesce_sweeps 1;
    let split_set = Hashtbl.create 16 in
    List.iter
      (fun (a, b) -> Hashtbl.replace split_set (norm_pair a b) ())
      ctx.Context.split_pairs;
    let is_split d s = Hashtbl.mem split_set (norm_pair d s) in
    let briggs_ok di si =
      let cls = Reg.cls (Interference.reg g di) in
      let nbrs =
        List.sort_uniq Int.compare
          (Interference.neighbors g di @ Interference.neighbors g si)
      in
      let significant =
        List.length
          (List.filter
             (fun nb ->
               nb <> di && nb <> si
               && Interference.degree g nb
                  >= ctx.Context.k (Reg.cls (Interference.reg g nb)))
             nbrs)
      in
      significant < ctx.Context.k cls
    in
    let coalesced = ref 0 in
    Iloc.Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Instr.t) ->
            if Instr.is_copy i then begin
              let d = Option.get i.Instr.dst and s = i.Instr.srcs.(0) in
              match
                (Interference.index_opt g d, Interference.index_opt g s)
              with
              | Some d0, Some s0 ->
                  let di = Interference.find g d0
                  and si = Interference.find g s0 in
                  if di <> si && not (Interference.interfere g di si) then begin
                    let ok =
                      match phase with
                      | Unrestricted -> not (is_split d s)
                      | Conservative -> is_split d s && briggs_ok di si
                    in
                    if ok then begin
                      merge_into ctx g ~keep:di ~drop:si;
                      incr coalesced
                    end
                  end
              | _ -> ()
            end)
          b.body)
      cfg;
    if !coalesced = 0 then { changed = false; coalesced = 0 }
    else begin
      let rename r =
        match Interference.index_opt g r with
        | None -> r
        | Some i -> Interference.reg g (Interference.find g i)
      in
      Iloc.Cfg.iter_blocks
        (fun b ->
          b.Iloc.Block.body <-
            List.filter_map
              (fun i ->
                let i = Instr.map_regs rename i in
                match (i.Instr.op, i.Instr.dst) with
                | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) -> None
                | _ -> Some i)
              b.Iloc.Block.body;
          b.Iloc.Block.term <- Instr.map_regs rename b.Iloc.Block.term)
        cfg;
      ctx.Context.split_pairs <-
        List.filter_map
          (fun (a, b) ->
            let a = rename a and b = rename b in
            if Reg.equal a b then None else Some (a, b))
          ctx.Context.split_pairs;
      ctx.Context.coalesced <- ctx.Context.coalesced + !coalesced;
      Context.count ctx Stats.Coalesced_copies !coalesced;
      Context.invalidate_liveness ctx;
      { changed = true; coalesced = !coalesced }
    end

  (* The allocator's build_coalesce regime: unrestricted to a fixpoint,
     then (for splitting modes) conservative to a fixpoint. *)
  let fixpoint (ctx : Context.t) =
    ignore (Context.graph ctx);
    let phase = ref Unrestricted in
    let rec loop () =
      let outcome = pass !phase ctx in
      if outcome.changed then loop ()
      else
        match !phase with
        | Unrestricted when Remat.Mode.splits ctx.Context.mode ->
            phase := Conservative;
            loop ()
        | Unrestricted | Conservative -> ()
    in
    loop ()
end

(* Renumber over the structured routine: pruned SSA through
   [Ssa.Construct], values through [Ssa.Values], materialization by
   rewriting instruction lists. *)
module Renumber = struct
  module Cfg = Iloc.Cfg
  module Block = Iloc.Block
  module Phi = Iloc.Phi
  module Values = Ssa.Values
  module Union_find = Dataflow.Union_find
  module Mode = Remat.Mode
  module Remat_analysis = Remat.Remat_analysis

  type result = {
    cfg : Iloc.Cfg.t;
    tags : Tag.t Iloc.Reg.Tbl.t;
    split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
    n_values : int;
    n_live_ranges : int;
  }

  let run mode (cfg : Cfg.t) =
    (* Steps 1-3: pruned SSA (liveness, φ-insertion, renaming). *)
    let ssa = Ssa.Construct.run cfg in
    let vals = Values.analyze ssa in
    let n = Values.count vals in
    (* Step 4: tag propagation.  No_remat forces everything heavyweight. *)
    let tags =
      match mode with
      | Mode.No_remat | Mode.Ssa_no_remat -> Array.make n Tag.Bottom
      | Mode.Chaitin_remat | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
      | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
      | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
          Remat_analysis.run ssa vals
    in
    let uf = Union_find.create n in
    let both_inst_equal a b =
      match (tags.(a), tags.(b)) with
      | Tag.Inst i, Tag.Inst j -> Instr.remat_equal i j
      | _ -> false
    in
    (* Step 5: union copies joining values with identical inst tags.  The
       copies themselves become self-copies after renaming and are dropped
       during materialization. *)
    (match mode with
    | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
    | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
    | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
        Cfg.iter_instrs
          (fun _ i ->
            match (i.Instr.op, i.Instr.dst) with
            | Instr.Copy, Some d ->
                let di = Values.index vals d
                and si = Values.index vals i.Instr.srcs.(0) in
                if both_inst_equal di si then ignore (Union_find.union uf di si)
            | _ -> ())
          ssa
    | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat -> ());
    (* Step 6: walk the φ-nodes; union compatible operands, record splits
       for the rest.  Split destinations/sources are resolved to
       representatives only after all unions are known. *)
    let pending_splits = ref [] (* (pred, result value, arg value) *) in
    Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (p : Phi.t) ->
            let vr = Values.index vals p.dst in
            List.iter
              (fun (pred, arg) ->
                let va = Values.index vals arg in
                let merge =
                  match mode with
                  | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat ->
                      true
                  | Mode.Briggs_remat | Mode.Briggs_split_all_loops
                  | Mode.Briggs_split_outer_loops
                  | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
                      (* Identical tags (including both-Bottom) merge; the
                         Minimal column of Figure 3. *)
                      Tag.equal tags.(vr) tags.(va)
                  | Mode.Briggs_remat_phi_splits -> both_inst_equal vr va
                in
                if merge then ignore (Union_find.union uf vr va)
                else pending_splits := (pred, vr, va) :: !pending_splits)
              p.args)
          b.phis)
      ssa;
    (* Live-range name for a value: its class representative's register. *)
    let rep v = Values.reg vals (Union_find.find uf v) in
    let rename r = rep (Values.index vals r) in
    let n_live_ranges = Union_find.n_classes uf in
    (* Tag per live range: the meet over the class (all members agree under
       Briggs modes; under Chaitin mode this meet *is* the limited
       criterion — inst only when every contributing value matches). *)
    let tags_out : Tag.t Reg.Tbl.t = Reg.Tbl.create 64 in
    for v = 0 to n - 1 do
      let r = rep v in
      let old = try Reg.Tbl.find tags_out r with Not_found -> Tag.Top in
      Reg.Tbl.replace tags_out r (Tag.meet old tags.(v))
    done;
    (* Materialize: rename operands, drop φ-nodes and self-copies, insert
       sequentialized split copies at the end of predecessor blocks. *)
    let out = Cfg.copy ssa in
    let split_pairs = ref [] in
    Cfg.iter_blocks
      (fun b ->
        b.phis <- [];
        b.body <-
          List.filter_map
            (fun i ->
              let i = Instr.map_regs rename i in
              match (i.Instr.op, i.Instr.dst) with
              | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) -> None
              | _ -> Some i)
            b.body;
        b.term <- Instr.map_regs rename b.term)
      out;
    let by_pred = Hashtbl.create 8 in
    List.iter
      (fun (pred, vr, va) ->
        let d = rep vr and s = rep va in
        if not (Reg.equal d s) then begin
          let old = Option.value (Hashtbl.find_opt by_pred pred) ~default:[] in
          Hashtbl.replace by_pred pred ((d, s) :: old)
        end)
      (List.rev !pending_splits);
    (* Ascending predecessor order, not [Hashtbl.iter]'s: the scratch
       registers [sequentialize] may mint are drawn from the shared supply,
       so the pred processing order decides their numbering — and with it
       byte-identity against the flat-native path. *)
    let pred_ids =
      List.sort Int.compare (Hashtbl.fold (fun p _ acc -> p :: acc) by_pred [])
    in
    List.iter
      (fun pred ->
        let moves = Hashtbl.find by_pred pred in
        (* The same (dst, src) move can be requested by several φ-nodes
           whose results were unioned; duplicates are harmless, distinct
           sources for one destination would be a broken union and
           Parallel_copy rejects them. *)
        let moves =
          List.sort_uniq
            (fun (d1, s1) (d2, s2) ->
              match Reg.compare d1 d2 with 0 -> Reg.compare s1 s2 | c -> c)
            moves
        in
        let temp cls =
          let t = Cfg.fresh_reg out cls in
          t
        in
        let seq = Ssa.Parallel_copy.sequentialize moves ~temp in
        (* Scratch registers copy an existing live range; they inherit its
           tag so spilling them stays exact. *)
        List.iter
          (fun (d, s) ->
            if not (Reg.Tbl.mem tags_out d) then
              Reg.Tbl.replace tags_out d
                (Option.value (Reg.Tbl.find_opt tags_out s) ~default:Tag.Bottom))
          seq;
        List.iter (fun pair -> split_pairs := pair :: !split_pairs) seq;
        Block.append_before_term (Cfg.block out pred)
          (List.map (fun (d, s) -> Instr.copy d s) seq))
      pred_ids;
    {
      cfg = out;
      tags = tags_out;
      split_pairs = List.rev !split_pairs;
      n_values = n;
      n_live_ranges;
    }
end

(* The SSA pipeline's dense pressure substrate as it stood before
   per-register path exploration ([Dataflow.Liveness.Ssa]) and the
   sparse-set spill sweep ([Remat.Ssa_alloc.select]) replaced it:
   four [|blocks| x |registers|] bitset families solved by the shared
   postorder worklist, MaxLive from those rows, and the spill selection
   that rebuilt a [Reg.Set] at every program point.  The oracles of
   test_ssa_pipeline's liveness, MaxLive and selection A/B properties. *)
module Ssa_dense = struct
  module Cfg = Iloc.Cfg
  module Block = Iloc.Block
  module Phi = Iloc.Phi
  module Bitset = Dataflow.Bitset
  module Reg_index = Dataflow.Reg_index
  module Worklist = Dataflow.Worklist
  module Order = Dataflow.Order
  module Liveness = Dataflow.Liveness

  type t = Liveness.t = {
    regs : Reg_index.t;
    live_in : Bitset.t array;
    live_out : Bitset.t array;
    ue : Bitset.t array;
    kill : Bitset.t array;
  }

  let solve ~nb ~nr ~po ~succs_iter ~preds_iter ~live_in ~live_out ~ue ~kill =
    let pos = Array.make nb (-1) in
    Array.iteri (fun i b -> pos.(b) <- i) po;
    let queued = Array.make nb false in
    let q = Worklist.Buckets.create ~keys:(max nb 1) in
    Array.iteri
      (fun i b ->
        Worklist.Buckets.push q ~key:i b;
        queued.(b) <- true)
      po;
    let tmp = Bitset.create nr in
    let continue = ref true in
    while !continue do
      match Worklist.Buckets.pop_min q with
      | None -> continue := false
      | Some b ->
          queued.(b) <- false;
          succs_iter b (fun s ->
              ignore (Bitset.union_into ~dst:live_out.(b) live_in.(s)));
          Bitset.clear tmp;
          ignore (Bitset.union_into ~dst:tmp live_out.(b));
          ignore (Bitset.diff_into ~dst:tmp kill.(b));
          ignore (Bitset.union_into ~dst:tmp ue.(b));
          if Bitset.union_into ~dst:live_in.(b) tmp then
            preds_iter b (fun p ->
                if pos.(p) >= 0 && not queued.(p) then begin
                  Worklist.Buckets.push q ~key:pos.(p) p;
                  queued.(p) <- true
                end)
    done

  (* φ-aware liveness over an SSA-form routine, for the decoupled
     spill-then-color pipeline.  The equations treat a φ-node's arguments
     as used at the end of the matching predecessor and its destination as
     defined at the block's entry (Bouchez–Darte–Rastello):

       kill(b)     = instruction defs of b ∪ φ destinations of b
       ue(b)       = upward-exposed instruction uses of b (φ args excluded)
       live_out(b) = ∪_{s ∈ succ(b)} (live_in(s) ∪ φ-args on edge b→s)
       live_in(b)  = ue(b) ∪ (live_out(b) \ kill(b))

     The edge-specific φ-arg term is constant, so it is folded into the
     initial [live_out] seed and the shared worklist [solve] — which only
     ever grows [live_out] by successors' [live_in] — computes the rest. *)
  let compute_ssa ?order (cfg : Iloc.Cfg.t) =
    let regs = Reg_index.of_cfg cfg in
    let nr = Reg_index.count regs in
    let nb = Iloc.Cfg.n_blocks cfg in
    let ue = Array.init nb (fun _ -> Bitset.create nr) in
    let kill = Array.init nb (fun _ -> Bitset.create nr) in
    let live_in = Array.init nb (fun _ -> Bitset.create nr) in
    let live_out = Array.init nb (fun _ -> Bitset.create nr) in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let ue_b = ue.(b.Iloc.Block.id) and kill_b = kill.(b.Iloc.Block.id) in
        List.iter
          (fun (p : Iloc.Phi.t) ->
            Bitset.unsafe_add kill_b (Reg_index.index regs p.Iloc.Phi.dst);
            List.iter
              (fun (pred, arg) ->
                Bitset.unsafe_add live_out.(pred) (Reg_index.index regs arg))
              p.Iloc.Phi.args)
          b.Iloc.Block.phis;
        Iloc.Block.iter_instrs
          (fun i ->
            List.iter
              (fun u ->
                let ui = Reg_index.index regs u in
                if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
              (Iloc.Instr.uses i);
            List.iter
              (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
              (Iloc.Instr.defs i))
          b)
      cfg;
    let po = match order with Some o -> o | None -> Order.postorder cfg in
    solve ~nb ~nr ~po
      ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
      ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
      ~live_in ~live_out ~ue ~kill;
    { regs; live_in; live_out; ue; kill }

  (* Pointwise register pressure of an SSA routine, per block and class,
     from the boundary rows of {!compute_ssa}: one backward walk per block
     from [live_out] (which includes φ-args of successor edges), noting
     the peak before/after every instruction, plus the block-entry point
     where live-in values and all φ destinations are live at once (the
     entry parallel copy has written every destination before any body
     instruction runs). *)
  let max_live_ssa (cfg : Iloc.Cfg.t) (t : t) =
    let nb = Iloc.Cfg.n_blocks cfg in
    let mi = Array.make nb 0 and mf = Array.make nb 0 in
    let nr = Reg_index.count t.regs in
    let is_float = Array.make nr false in
    for i = 0 to nr - 1 do
      is_float.(i) <- Iloc.Reg.is_float (Reg_index.reg t.regs i)
    done;
    Iloc.Cfg.iter_blocks
      (fun b ->
        let id = b.Iloc.Block.id in
        let live = Bitset.create nr in
        ignore (Bitset.union_into ~dst:live t.live_out.(id));
        let ci = ref 0 and cf = ref 0 in
        Bitset.iter (fun i -> if is_float.(i) then incr cf else incr ci) live;
        let note () =
          if !ci > mi.(id) then mi.(id) <- !ci;
          if !cf > mf.(id) then mf.(id) <- !cf
        in
        note ();
        let add i =
          if not (Bitset.mem live i) then begin
            Bitset.add live i;
            if is_float.(i) then incr cf else incr ci
          end
        in
        let remove i =
          if Bitset.mem live i then begin
            Bitset.remove live i;
            if is_float.(i) then decr cf else decr ci
          end
        in
        let instr (i : Iloc.Instr.t) =
          (* At the definition point the destination coexists with
             everything live after the instruction (a dead definition
             still occupies a register there). *)
          List.iter (fun d -> add (Reg_index.index t.regs d)) (Iloc.Instr.defs i);
          note ();
          List.iter
            (fun d -> remove (Reg_index.index t.regs d))
            (Iloc.Instr.defs i);
          List.iter (fun u -> add (Reg_index.index t.regs u)) (Iloc.Instr.uses i);
          note ()
        in
        instr b.Iloc.Block.term;
        List.iter instr (List.rev b.Iloc.Block.body);
        (* Block entry, after the φ parallel copy: live-in ∪ φ dests. *)
        List.iter
          (fun (p : Iloc.Phi.t) ->
            add (Reg_index.index t.regs p.Iloc.Phi.dst))
          b.Iloc.Block.phis;
        note ())
      cfg;
    (mi, mf)

  (* One sweep over every program point, accumulating the set of values to
     spill this round.  A point is described by [counted] — the registers
     occupying a color there, [sticky] when spilling cannot relieve the
     point (instruction operands keep a temporary alive at their site) —
     and [candidates], the registers whose spilling frees one color here.
     At a block's end point the candidates also include successor
     φ-destinations: spilling one turns its φ into a memory φ, whose edge
     store reaches the slot through a transient pair instead of holding
     the argument's register across the edge. *)
  let select (cfg : Cfg.t) (live : Liveness.t) ~k ~cost ~spillable =
    let chosen = ref Reg.Set.empty in
    let stuck = ref None in
    let classes = [ Reg.Int; Reg.Float ] in
    let reduce ~where ~counted ~candidates =
      List.iter
        (fun cls ->
          let n =
            List.fold_left
              (fun n (r, sticky) ->
                if
                  Reg.cls_equal (Reg.cls r) cls
                  && (sticky || not (Reg.Set.mem r !chosen))
                then n + 1
                else n)
              0 counted
          in
          let kc = k cls in
          if n > kc then begin
            let cands =
              List.sort_uniq Reg.compare candidates
              |> List.filter (fun r ->
                     Reg.cls_equal (Reg.cls r) cls
                     && spillable r
                     && not (Reg.Set.mem r !chosen))
              |> List.map (fun r -> (cost r, r))
              |> List.sort (fun (c1, r1) (c2, r2) ->
                     match Float.compare c1 c2 with
                     | 0 -> Reg.compare r1 r2
                     | c -> c)
            in
            let need = ref (n - kc) in
            List.iter
              (fun (_, r) ->
                if !need > 0 then begin
                  chosen := Reg.Set.add r !chosen;
                  decr need
                end)
              cands;
            if !need > 0 && !stuck = None then stuck := Some where
          end)
        classes
    in
    Cfg.iter_blocks
      (fun b ->
        let bid = b.Block.id in
        let where = Printf.sprintf "block %s" b.Block.label in
        (* Entry point: live-in values and every φ destination coexist
           just after the entry parallel copy. *)
        let live_in_regs = Liveness.live_in live bid in
        let dests = List.map (fun (p : Phi.t) -> p.Phi.dst) b.Block.phis in
        reduce ~where
          ~counted:(List.map (fun r -> (r, false)) (live_in_regs @ dests))
          ~candidates:(live_in_regs @ dests);
        (* Instruction points, from per-instruction live-after sets. *)
        let live_out_set =
          List.fold_left
            (fun s r -> Reg.Set.add r s)
            Reg.Set.empty (Liveness.live_out live bid)
        in
        let instrs = Array.of_list (b.Block.body @ [ b.Block.term ]) in
        let n = Array.length instrs in
        let after = Array.make n Reg.Set.empty in
        let cur = ref live_out_set in
        for idx = n - 1 downto 0 do
          after.(idx) <- !cur;
          let i = instrs.(idx) in
          let s =
            List.fold_left (fun s d -> Reg.Set.remove d s) !cur (Instr.defs i)
          in
          cur := List.fold_left (fun s u -> Reg.Set.add u s) s (Instr.uses i)
        done;
        for idx = 0 to n - 1 do
          let i = instrs.(idx) in
          let defs = Instr.defs i in
          let uses = List.sort_uniq Reg.compare (Instr.uses i) in
          let after_minus_defs =
            List.fold_left (fun s d -> Reg.Set.remove d s) after.(idx) defs
          in
          let through = Reg.Set.elements after_minus_defs in
          let through_nonuse =
            List.filter (fun r -> not (List.exists (Reg.equal r) uses)) through
          in
          reduce ~where
            ~counted:
              (List.map (fun u -> (u, true)) uses
              @ List.map (fun r -> (r, false)) through_nonuse)
            ~candidates:through_nonuse;
          if defs <> [] then
            reduce ~where
              ~counted:
                (List.map (fun d -> (d, true)) defs
                @ List.map (fun r -> (r, false)) through)
              ~candidates:through
        done;
        (* End point: successor φ-arguments are live here; relieving one
           means spilling the φ's destination, not the argument. *)
        let term_uses = List.sort_uniq Reg.compare (Instr.uses b.Block.term) in
        let succ_phis =
          match Cfg.succs cfg bid with
          | [ s ] -> (Cfg.block cfg s).Block.phis
          | _ -> []
        in
        let arg_of_kept v =
          List.exists
            (fun (p : Phi.t) ->
              (not (Reg.Set.mem p.Phi.dst !chosen))
              && Reg.equal (Phi.arg_for p ~pred:bid) v)
            succ_phis
        in
        let out = Liveness.live_out live bid in
        let counted =
          List.map
            (fun v ->
              (v, List.exists (Reg.equal v) term_uses || arg_of_kept v))
            out
        in
        let value_cands =
          List.filter
            (fun v ->
              (not (List.exists (Reg.equal v) term_uses)) && not (arg_of_kept v))
            out
        in
        let dest_cands =
          List.filter_map
            (fun (p : Phi.t) ->
              if Reg.Set.mem p.Phi.dst !chosen then None
              else Some p.Phi.dst)
            succ_phis
        in
        reduce ~where ~counted ~candidates:(value_cands @ dest_cands))
      cfg;
    (!chosen, !stuck)
end

(* Dense liveness over the flat arena, as [Dataflow.Liveness.compute_flat]
   computed it before boundary liveness became the only flat entry
   point: four [|blocks| x |registers|] row families in slabs, solved by
   the postorder worklist above.  The oracle of test_flat's boundary
   liveness property and of [Graph]'s live-now rows. *)
module Liveness_flat = struct
  module Bitset = Dataflow.Bitset
  module Reg_index = Dataflow.Reg_index

  let compute ?order (fl : Iloc.Flat.t) : Dataflow.Liveness.t =
    let regs = Reg_index.of_flat fl in
    let nr = Reg_index.count regs in
    let nb = Iloc.Flat.n_blocks fl in
    let pmap = Reg_index.packed_map regs in
    let ue = Bitset.slab ~rows:nb ~capacity:nr () in
    let kill = Bitset.slab ~rows:nb ~capacity:nr () in
    let code = fl.Iloc.Flat.code in
    let stride = Iloc.Flat.stride in
    for b = 0 to nb - 1 do
      let ue_b = ue.(b) and kill_b = kill.(b) in
      for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
        let o = slot * stride in
        (* Sources before the destination, as in the structured sweep: a
           register both used and defined by one instruction is
           upward-exposed. *)
        for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
          let p = Array.unsafe_get code (o + k) in
          if p >= 0 then begin
            let ui = Array.unsafe_get pmap p in
            if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui
          end
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
        if d >= 0 then Bitset.unsafe_add kill_b (Array.unsafe_get pmap d)
      done
    done;
    let live_in = Bitset.slab ~rows:nb ~capacity:nr () in
    let live_out = Bitset.slab ~rows:nb ~capacity:nr () in
    let po =
      match order with Some o -> o | None -> Dataflow.Order.postorder_flat fl
    in
    Ssa_dense.solve ~nb ~nr ~po
      ~succs_iter:(fun b f -> List.iter f (Iloc.Flat.succs_list fl b))
      ~preds_iter:(fun b f -> List.iter f (Iloc.Flat.preds_list fl b))
      ~live_in ~live_out ~ue ~kill;
    { regs; live_in; live_out; ue; kill }
end

(* The interference graph read straight off its definition, with none
   of [Remat.Interference.build]'s machinery (boundary rows, sparse
   live-now set, bit matrix, pair buffer, sorts).  Dense liveness rows
   from [Liveness_flat]; per block a backward walk over the bridged
   routine's instructions, where each definition pairs with every
   live-now register of its class except itself and a copy's source,
   in ascending node order; each emitted pair is deduplicated through a
   [Hashtbl] as it comes, first emission kept.  Adjacency lists each
   node's neighbors in the order their pairs were first emitted —
   what [build] promises for both of its edge sets. *)
module Graph = struct
  module Bitset = Dataflow.Bitset
  module Reg_index = Dataflow.Reg_index

  (* One line per node: name, degree, significant neighbors, then the
     adjacency in order; a header with the node and edge counts. *)
  let render ~n ~n_edges ~name ~degree ~sig_nb ~adj =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "n=%d e=%d\n" n n_edges);
    for i = 0 to n - 1 do
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d" (name i) (degree i) (sig_nb i));
      List.iter (fun j -> Buffer.add_string buf (Printf.sprintf " %d" j)) (adj i);
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf

  (* The observables of a built graph, in [render]'s format. *)
  let of_graph g =
    render ~n:(Interference.n_nodes g) ~n_edges:(Interference.n_edges g)
      ~name:(fun i -> Reg.to_string (Interference.reg g i))
      ~degree:(Interference.degree g)
      ~sig_nb:(Interference.sig_neighbors g)
      ~adj:(Interference.neighbors g)

  (* Hands [emit] every candidate pair of [fl] in emission order,
     duplicates included, as (definition, live-now member) nodes of the
     returned [Reg_index.of_flat fl] — the sequence [build] hands its
     edge set. *)
  let iter_emissions (fl : Iloc.Flat.t) emit =
    let live = Liveness_flat.compute fl in
    let regs = live.Dataflow.Liveness.regs in
    let cfg = Iloc.Flat.to_routine fl in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let live_now = Bitset.copy live.Dataflow.Liveness.live_out.(b.Iloc.Block.id) in
        let instrs = List.rev (b.Iloc.Block.body @ [ b.Iloc.Block.term ]) in
        List.iter
          (fun (i : Instr.t) ->
            List.iter
              (fun d ->
                let di = Reg_index.index regs d in
                let skip =
                  if Instr.is_copy i then Some (Reg_index.index regs i.Instr.srcs.(0))
                  else None
                in
                Bitset.iter
                  (fun l ->
                    if
                      l <> di && Some l <> skip
                      && Reg.cls (Reg_index.reg regs l) = Reg.cls d
                    then emit di l)
                  live_now;
                Bitset.remove live_now di)
              (Instr.defs i);
            List.iter
              (fun u -> Bitset.add live_now (Reg_index.index regs u))
              (Instr.uses i))
          instrs)
      cfg;
    regs

  (* The graph of [fl] as the definition gives it, in the same format;
     [k] sets the significance thresholds as in [build]. *)
  let fingerprint ?k (fl : Iloc.Flat.t) =
    let n = Reg_index.count (Reg_index.of_flat fl) in
    let seen = Hashtbl.create 1024 in
    let adj = Array.make n [] in
    let regs =
      iter_emissions fl (fun a b ->
          let key = (min a b * n) + max a b in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            adj.(a) <- b :: adj.(a);
            adj.(b) <- a :: adj.(b)
          end)
    in
    let adj = Array.map List.rev adj in
    let degree = Array.map List.length adj in
    let significant i =
      match k with
      | Some k -> degree.(i) >= k (Reg.cls (Reg_index.reg regs i))
      | None -> false
    in
    let sig_nb =
      Array.map (fun l -> List.length (List.filter significant l)) adj
    in
    render ~n ~n_edges:(Hashtbl.length seen)
      ~name:(fun i -> Reg.to_string (Reg_index.reg regs i))
      ~degree:(Array.get degree) ~sig_nb:(Array.get sig_nb)
      ~adj:(Array.get adj)
end
