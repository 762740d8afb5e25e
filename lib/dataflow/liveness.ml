type t = {
  regs : Reg_index.t;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  ue : Bitset.t array;
  kill : Bitset.t array;
}

(* The worklist fixpoint, shared by every entry point.  [succs_iter]/
   [preds_iter] abstract the edge representation (lists for the
   structured view, CSR for the flat one); everything else — bucket
   order, seed sweep, change propagation — is identical, so the flat
   and structured paths converge to bit-identical sets. *)
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

let compute ?order (cfg : Iloc.Cfg.t) =
  if Iloc.Cfg.in_ssa cfg then
    invalid_arg "Liveness.compute: routine is in SSA form";
  let regs = Reg_index.of_cfg cfg in
  let nr = Reg_index.count regs in
  let nb = Iloc.Cfg.n_blocks cfg in
  let ue = Array.init nb (fun _ -> Bitset.create nr) in
  let kill = Array.init nb (fun _ -> Bitset.create nr) in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let ue_b = ue.(b.id) and kill_b = kill.(b.id) in
      Iloc.Block.iter_instrs
        (fun i ->
          List.iter
            (fun u ->
              (* Reg_index indices are < nr by construction. *)
              let ui = Reg_index.index regs u in
              if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
            (Iloc.Instr.uses i);
          List.iter
            (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
            (Iloc.Instr.defs i))
        b)
    cfg;
  let live_in = Array.init nb (fun _ -> Bitset.create nr) in
  let live_out = Array.init nb (fun _ -> Bitset.create nr) in
  (* Priority worklist, keyed by postorder position: for this backward
     problem a block's successors are (back edges aside) visited first,
     so most blocks settle in one pass.  After the seed sweep a block is
     re-examined only when [live_in] of one of its successors grew — the
     invariant is that any block off the worklist has
     [live_in = ue ∪ (live_out \ kill)] with [live_out] current w.r.t.
     its successors' [live_in].  Unlike a FIFO, the bucket worklist
     always resumes at the pending block earliest in the postorder, so a
     re-queued loop body is reprocessed before work queued behind it;
     the fixpoint is unique, so only convergence speed depends on this
     order.  Unreachable blocks are not in the postorder and keep empty
     sets; edges from them are ignored. *)
  let po = match order with Some o -> o | None -> Order.postorder cfg in
  solve ~nb ~nr ~po
    ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
    ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
    ~live_in ~live_out ~ue ~kill;
  { regs; live_in; live_out; ue; kill }

module Ssa = struct
  (* φ-aware liveness over an SSA-form routine, for the decoupled
     spill-then-color pipeline.  The equations treat a φ-node's
     arguments as used at the end of the matching predecessor and its
     destination as defined at the block's entry (Bouchez–Darte–
     Rastello):

       kill(b)     = instruction defs of b ∪ φ destinations of b
       ue(b)       = upward-exposed instruction uses of b (φ args excluded)
       live_out(b) = ∪_{s ∈ succ(b)} (live_in(s) ∪ φ-args on edge b→s)
       live_in(b)  = ue(b) ∪ (live_out(b) \ kill(b))

     Solved one register at a time by path exploration (Brandner et
     al., "Computing Liveness Sets for SSA-Form Programs"): a register
     is live-in wherever a backward walk from one of its use sites
     reaches before meeting a block that kills it.  That is the least
     fixpoint of the equations — what a worklist over dense
     [|blocks| x |registers|] rows converges to — at the cost of the
     rows' actual size. *)
  type t = { live_in : Iloc.Reg.t list array; live_out : Iloc.Reg.t list array }

  let capacity (cfg : Iloc.Cfg.t) =
    let m = ref (-1) in
    let see r =
      let p = Iloc.Reg.hash r in
      if p > !m then m := p
    in
    Iloc.Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (p : Iloc.Phi.t) ->
            see p.Iloc.Phi.dst;
            List.iter (fun (_, a) -> see a) p.Iloc.Phi.args)
          b.Iloc.Block.phis;
        Iloc.Block.iter_instrs
          (fun i ->
            Option.iter see i.Iloc.Instr.dst;
            Array.iter see i.Iloc.Instr.srcs)
          b)
      cfg;
    !m + 1

  (* Site lists are consed block by block in ascending block order, so
     a repeat within one block is the list's head. *)
  let[@inline] note_site sites p b =
    match Array.unsafe_get sites p with
    | b' :: _ when b' = b -> ()
    | l -> Array.unsafe_set sites p (b :: l)

  let compute ~cap (cfg : Iloc.Cfg.t) =
    let nb = Iloc.Cfg.n_blocks cfg in
    let reach = Order.reachable cfg in
    (* One sweep: per packed id, the blocks that kill it, the blocks
       where it is upward-exposed, and the predecessors whose end it is
       a φ argument at.  [defined] is an epoch array keyed by block id:
       φ destinations are defined before the body runs. *)
    let kills = Array.make cap [] in
    let ues = Array.make cap [] in
    let seeds = Array.make cap [] in
    let defined = Array.make cap (-1) in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let id = b.Iloc.Block.id in
        List.iter
          (fun (p : Iloc.Phi.t) ->
            let d = Iloc.Reg.hash p.Iloc.Phi.dst in
            defined.(d) <- id;
            note_site kills d id;
            List.iter
              (fun (pred, a) ->
                let a = Iloc.Reg.hash a in
                seeds.(a) <- pred :: seeds.(a))
              p.Iloc.Phi.args)
          b.Iloc.Block.phis;
        Iloc.Block.iter_instrs
          (fun i ->
            Array.iter
              (fun u ->
                let u = Iloc.Reg.hash u in
                if defined.(u) <> id then note_site ues u id)
              i.Iloc.Instr.srcs;
            match i.Iloc.Instr.dst with
            | Some d ->
                let d = Iloc.Reg.hash d in
                defined.(d) <- id;
                note_site kills d id
            | None -> ())
          b)
      cfg;
    (* The walks.  Stamps hold the packed id being walked, so no array
       is cleared between registers; taking registers in descending
       packed order and consing makes every row ascending in
       [Reg.compare] order.  Unreachable blocks follow the worklist's
       convention: never live-in, live-out only through their own φ
       seeds, and never reached from a successor. *)
    let live_in = Array.make nb [] and live_out = Array.make nb [] in
    let in_stamp = Array.make nb (-1) and out_stamp = Array.make nb (-1) in
    let kill_stamp = Array.make nb (-1) in
    let stack = Array.make (max nb 1) 0 and sp = ref 0 in
    for p = cap - 1 downto 0 do
      if ues.(p) <> [] || seeds.(p) <> [] then begin
        let r = Iloc.Flat.reg_of_packed p in
        List.iter (fun b -> kill_stamp.(b) <- p) kills.(p);
        let enter b =
          if reach.(b) && in_stamp.(b) <> p then begin
            in_stamp.(b) <- p;
            live_in.(b) <- r :: live_in.(b);
            stack.(!sp) <- b;
            incr sp
          end
        in
        let leave q =
          if out_stamp.(q) <> p then begin
            out_stamp.(q) <- p;
            live_out.(q) <- r :: live_out.(q);
            if kill_stamp.(q) <> p then enter q
          end
        in
        List.iter enter ues.(p);
        List.iter leave seeds.(p);
        while !sp > 0 do
          decr sp;
          List.iter
            (fun q -> if reach.(q) then leave q)
            (Iloc.Cfg.preds cfg stack.(!sp))
        done
      end
    done;
    { live_in; live_out }

  (* Pointwise register pressure per block and class: one backward walk
     per block from [live_out] (which includes φ-args of successor
     edges), noting the peak before/after every instruction, plus the
     block-entry point where live-in values and all φ destinations are
     live at once (the entry parallel copy has written every
     destination before any body instruction runs).  [live] is an epoch
     array keyed by block id, so it is never cleared. *)
  let max_live ~cap (cfg : Iloc.Cfg.t) t =
    let nb = Iloc.Cfg.n_blocks cfg in
    let mi = Array.make nb 0 and mf = Array.make nb 0 in
    let live = Array.make cap (-1) in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let id = b.Iloc.Block.id in
        let ci = ref 0 and cf = ref 0 in
        let note () =
          if !ci > mi.(id) then mi.(id) <- !ci;
          if !cf > mf.(id) then mf.(id) <- !cf
        in
        let add r =
          let p = Iloc.Reg.hash r in
          if live.(p) <> id then begin
            live.(p) <- id;
            if p land 1 = 1 then incr cf else incr ci
          end
        in
        let remove r =
          let p = Iloc.Reg.hash r in
          if live.(p) = id then begin
            live.(p) <- -1;
            if p land 1 = 1 then decr cf else decr ci
          end
        in
        List.iter add t.live_out.(id);
        note ();
        let instr (i : Iloc.Instr.t) =
          (* At the definition point the destination coexists with
             everything live after the instruction (a dead definition
             still occupies a register there). *)
          Option.iter add i.Iloc.Instr.dst;
          note ();
          Option.iter remove i.Iloc.Instr.dst;
          Array.iter add i.Iloc.Instr.srcs;
          note ()
        in
        instr b.Iloc.Block.term;
        List.iter instr (List.rev b.Iloc.Block.body);
        (* Block entry, after the φ parallel copy: live-in ∪ φ dests. *)
        List.iter (fun (p : Iloc.Phi.t) -> add p.Iloc.Phi.dst) b.Iloc.Block.phis;
        note ())
      cfg;
    (mi, mf)
end

(* CSR edge iteration over a flat arena: no list cells, no closures per
   edge beyond the two allocated here per call. *)
let[@inline] flat_succs_iter (fl : Iloc.Flat.t) b f =
  for i = fl.Iloc.Flat.succ_idx.(b) to fl.Iloc.Flat.succ_idx.(b + 1) - 1 do
    f fl.Iloc.Flat.succ.(i)
  done

let[@inline] flat_preds_iter (fl : Iloc.Flat.t) b f =
  for i = fl.Iloc.Flat.pred_idx.(b) to fl.Iloc.Flat.pred_idx.(b + 1) - 1 do
    f fl.Iloc.Flat.pred.(i)
  done

let to_regs t set =
  Bitset.fold (fun i acc -> Reg_index.reg t.regs i :: acc) set [] |> List.rev

let live_in t b = to_regs t t.live_in.(b)
let live_out t b = to_regs t t.live_out.(b)

let live_in_mem t b r =
  match Reg_index.index_opt t.regs r with
  | Some i -> Bitset.mem t.live_in.(b) i
  | None -> false

let live_out_mem t b r =
  match Reg_index.index_opt t.regs r with
  | Some i -> Bitset.mem t.live_out.(b) i
  | None -> false

module Boundary = struct
  (* Block-boundary liveness over the upward-exposed universe.

     Any register in any [live_in]/[live_out] set is upward-exposed in
     some block (induction over the fixpoint: sets only grow by unioning
     [ue] rows through [live_out \ kill]).  So the dense row width [nr]
     — every register in the routine — is wasted on sets that can only
     ever mention the usually-tiny universe [U] of upward-exposed
     registers: generated million-instruction routines have hundreds of
     thousands of registers but a few thousand members of [U], and dense
     rows would cost gigabytes.  Rows here are [|U|] bits wide; the
     result is exactly [compute]'s boundary sets reindexed. *)
  type nonrec t = {
    uindex : Reg_index.t;  (** dense numbering of [U] only *)
    live_in : Bitset.t array;
    live_out : Bitset.t array;
    ue : Bitset.t array;
    kill : Bitset.t array;  (** per-block kills restricted to [U] *)
  }

  (* Cross-round scratch: spill rounds recompute the boundary from
     scratch, and every working buffer here scales with the routine
     (packed-id-width arrays, |blocks| x |U| slabs).  The previous
     round's buffers are dead the moment the caller recomputes, so a
     [scratch] handed back on each call recycles all of them — the
     [s_prev] result's slabs through [Bitset.slab ?buf].  The rows of
     [s_prev] must no longer be in use when [compute] is called. *)
  type scratch = {
    mutable s_defined : int array;
    mutable s_in_u : Bytes.t;
    mutable s_umap : int array;
    mutable s_prev : t option;
  }

  let scratch () =
    { s_defined = [||]; s_in_u = Bytes.empty; s_umap = [||]; s_prev = None }

  let compute ?order ?scratch (fl : Iloc.Flat.t) =
    let nb = Iloc.Flat.n_blocks fl in
    let code = fl.Iloc.Flat.code in
    let stride = Iloc.Flat.stride in
    let n_ints = Array.length code in
    let maxp = ref (-1) in
    let o = ref 0 in
    while !o < n_ints do
      for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (!o + k) in
        if p > !maxp then maxp := p
      done;
      o := !o + stride
    done;
    let cap = !maxp + 2 in
    let int_buf prev fill =
      match prev with
      | Some a when Array.length a >= cap ->
          Array.fill a 0 cap fill;
          a
      | _ -> Array.make cap fill
    in
    (* Pass 1: members of U — used before any same-block definition.
       [defined] is an epoch array keyed by block id, so there is no
       per-block clearing. *)
    let defined =
      int_buf (Option.map (fun s -> s.s_defined) scratch) (-1)
    in
    let in_u =
      match scratch with
      | Some s when Bytes.length s.s_in_u >= cap ->
          Bytes.fill s.s_in_u 0 cap '\000';
          s.s_in_u
      | _ -> Bytes.make cap '\000'
    in
    let nu = ref 0 in
    for b = 0 to nb - 1 do
      for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
        let o = slot * stride in
        for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
          let p = Array.unsafe_get code (o + k) in
          if p >= 0 && Array.unsafe_get defined p <> b
             && Bytes.unsafe_get in_u p = '\000'
          then begin
            Bytes.unsafe_set in_u p '\001';
            incr nu
          end
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
        if d >= 0 then Array.unsafe_set defined d b
      done
    done;
    (* Presence sweep enumerates ascending packed order = ascending
       [Reg.compare] order, matching every other register numbering in
       the repo — no member list, no sort. *)
    let uindex = Reg_index.of_presence in_u cap !nu in
    let umap = int_buf (Option.map (fun s -> s.s_umap) scratch) (-1) in
    let next = ref 0 in
    for p = 0 to cap - 1 do
      if Bytes.unsafe_get in_u p <> '\000' then begin
        Array.unsafe_set umap p !next;
        incr next
      end
    done;
    let nr = !nu in
    let prev_slab f =
      Option.bind scratch (fun s -> Option.map f s.s_prev)
    in
    let ue = Bitset.slab ?buf:(prev_slab (fun p -> p.ue)) ~rows:nb ~capacity:nr () in
    let kill = Bitset.slab ?buf:(prev_slab (fun p -> p.kill)) ~rows:nb ~capacity:nr () in
    Array.fill defined 0 cap (-1);
    for b = 0 to nb - 1 do
      let ue_b = ue.(b) and kill_b = kill.(b) in
      for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
        let o = slot * stride in
        for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
          let p = Array.unsafe_get code (o + k) in
          if p >= 0 && Array.unsafe_get defined p <> b then
            Bitset.unsafe_add ue_b (Array.unsafe_get umap p)
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
        if d >= 0 then begin
          Array.unsafe_set defined d b;
          let ud = Array.unsafe_get umap d in
          if ud >= 0 then Bitset.unsafe_add kill_b ud
        end
      done
    done;
    let live_in =
      Bitset.slab ?buf:(prev_slab (fun p -> p.live_in)) ~rows:nb ~capacity:nr ()
    in
    let live_out =
      Bitset.slab ?buf:(prev_slab (fun p -> p.live_out)) ~rows:nb ~capacity:nr ()
    in
    let po = match order with Some o -> o | None -> Order.postorder_flat fl in
    solve ~nb ~nr ~po ~succs_iter:(flat_succs_iter fl)
      ~preds_iter:(flat_preds_iter fl) ~live_in ~live_out ~ue ~kill;
    let t = { uindex; live_in; live_out; ue; kill } in
    Option.iter
      (fun s ->
        s.s_defined <- defined;
        s.s_in_u <- in_u;
        s.s_umap <- umap;
        s.s_prev <- Some t)
      scratch;
    t

  (* A register outside U is outside every boundary set — [false] here is
     the dense computation's answer, not an approximation. *)
  let live_in_mem t b r =
    match Reg_index.index_opt t.uindex r with
    | Some i -> Bitset.mem t.live_in.(b) i
    | None -> false

  let live_out_mem t b r =
    match Reg_index.index_opt t.uindex r with
    | Some i -> Bitset.mem t.live_out.(b) i
    | None -> false
end
