module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Phi = Iloc.Phi
module Reg = Iloc.Reg
module Liveness = Dataflow.Liveness

type result = {
  cfg : Iloc.Cfg.t;
  rounds : int;
  spilled_memory : int;
  spilled_remat : int;
  spill_slots : int;
  n_values : int;
  coalesced : int;
  max_live_int : int;
  max_live_float : int;
  max_colors_int : int;
  max_colors_float : int;
}

(* ------------------------------------------------------------------ *)
(* Spill costs                                                         *)

(* The same metric as {!Spill_cost}, without the interference-graph
   plumbing: every reload costs 2 (address arithmetic folded), every
   rematerialization 1, every store 2, weighted by 10^loop-depth of the
   site.  φ traffic is charged at the predecessor's weight — that is
   where the memory-φ store or the argument reload lands. *)
let cost_table ~cap (cfg : Cfg.t) loops tag_of =
  let costs = Array.make cap 0. in
  let add r x =
    let p = Reg.hash r in
    costs.(p) <- x +. costs.(p)
  in
  let w b = Dataflow.Loops.weight loops b in
  let remat r = Tag.is_inst (tag_of r) in
  let use_cost r wb = if remat r then wb else 2. *. wb in
  Cfg.iter_blocks
    (fun b ->
      let wb = w b.Block.id in
      List.iter
        (fun (p : Phi.t) ->
          if not (remat p.Phi.dst) then
            List.iter (fun (pred, _) -> add p.Phi.dst (2. *. w pred)) p.Phi.args;
          List.iter
            (fun (pred, arg) -> add arg (use_cost arg (w pred)))
            p.Phi.args)
        b.Block.phis;
      Block.iter_instrs
        (fun i ->
          (match i.Instr.dst with
          | Some d when not (remat d) -> add d (2. *. wb)
          | _ -> ());
          Array.iter (fun u -> add u (use_cost u wb)) i.Instr.srcs)
        b)
    cfg;
  costs

(* ------------------------------------------------------------------ *)
(* Spill selection                                                     *)

(* One sweep over every program point, accumulating the set of values to
   spill this round.  A point is described by the registers occupying a
   color there — {e sticky} ones when spilling cannot relieve the point
   (instruction operands keep a temporary alive at their site) — and
   its {e candidates}, the registers whose spilling frees one color
   here.  Per block and class:

   - entry: live-in values and every φ destination, none sticky, all
     candidates;
   - before an instruction: its sources are sticky, every other value
     live there is a candidate;
   - at a definition: the destination is sticky, the values live across
     the instruction are candidates;
   - end: live-out values, sticky when the terminator reads them or a
     kept successor φ takes them as its argument; the others and the
     successor φ destinations are candidates — spilling a destination
     turns its φ into a memory φ, whose edge store reaches the slot
     through a transient pair instead of holding the argument's
     register across the edge.

   A point holding more than k registers of a class spills its
   cheapest unchosen candidates (by [(cost, Reg.compare)]) until it
   fits; a point that cannot fit is the stuck point reported when
   nothing at all was chosen.

   Pressure is counted, not enumerated: per block a backward pass from
   [live_out] notes each instruction's dying sources and dead
   destination, then a forward pass keeps the live values in a sparse
   set keyed by packed id (Briggs–Torczon: O(1) insert, delete and
   clear) with per-class counts of members not yet chosen, so a point's
   pressure costs O(operands).  Candidate lists are built and sorted
   only where a class exceeds k. *)
let select (cfg : Cfg.t) (live : Liveness.Ssa.t) ~cap ~k ~cost ~spillable =
  let chosen = Bytes.make cap '\000' in
  let chosen_rev = ref [] in
  let[@inline] is_chosen p = Bytes.unsafe_get chosen p <> '\000' in
  let stuck = ref (-1) in
  (* The sparse set: [dense.(0 .. !size-1)] are the members, and
     [sparse.(p)] is p's index there when p is a member. *)
  let dense = Array.make (max cap 1) 0 and sparse = Array.make cap 0 in
  let size = ref 0 in
  let[@inline] mem p =
    let i = Array.unsafe_get sparse p in
    i < !size && Array.unsafe_get dense i = p
  in
  (* Members not yet chosen, by class (packed bit 0: 0 int, 1 float). *)
  let free = [| 0; 0 |] in
  let add p =
    if not (mem p) then begin
      sparse.(p) <- !size;
      dense.(!size) <- p;
      incr size;
      if not (is_chosen p) then free.(p land 1) <- free.(p land 1) + 1
    end
  in
  let remove p =
    if mem p then begin
      let i = sparse.(p) and last = dense.(!size - 1) in
      dense.(i) <- last;
      sparse.(last) <- i;
      decr size;
      if not (is_chosen p) then free.(p land 1) <- free.(p land 1) - 1
    end
  in
  let choose p =
    Bytes.unsafe_set chosen p '\001';
    chosen_rev := p :: !chosen_rev;
    if mem p then free.(p land 1) <- free.(p land 1) - 1
  in
  let k_of = [| k Reg.Int; k Reg.Float |] in
  (* [n] registers of class [c] occupy colors at a point of block [bid]
     whose candidates [cands ()] enumerates (repeats allowed): spill the
     cheapest eligible ones until the class fits. *)
  let reduce bid c n cands =
    let kc = k_of.(c) in
    if n > kc then begin
      let order a b =
        match Float.compare cost.(a) cost.(b) with
        | 0 -> Int.compare a b
        | o -> o
      in
      let need = ref (n - kc) in
      let last = ref (-1) in
      List.iter
        (fun p ->
          if p <> !last then begin
            last := p;
            if !need > 0 then begin
              choose p;
              decr need
            end
          end)
        (List.sort order
           (List.filter
              (fun p ->
                p land 1 = c
                && (not (is_chosen p))
                && spillable (Iloc.Flat.reg_of_packed p))
              (cands ())));
      if !need > 0 && !stuck < 0 then stuck := bid
    end
  in
  let members () = List.init !size (fun i -> dense.(i)) in
  (* Per-instruction notes of the backward pass, indexed by position in
     the block: bit j set when source j dies there (the first occurrence
     of a register that is not live across the instruction), bit 3 when
     the destination is dead.  No instruction has more than three
     sources. *)
  let notes = ref (Array.make 16 0) in
  (* Per-register stamps at the end point: [stick.(p) = bid] when p is
     sticky there. *)
  let stick = Array.make cap (-1) in
  Cfg.iter_blocks
    (fun b ->
      let bid = b.Block.id in
      let instrs = Array.of_list (b.Block.body @ [ b.Block.term ]) in
      let n = Array.length instrs in
      if Array.length !notes < n then notes := Array.make (2 * n) 0;
      let notes = !notes in
      (* Backward pass: the set ends as the live values before the
         first instruction. *)
      size := 0;
      free.(0) <- 0;
      free.(1) <- 0;
      List.iter (fun r -> add (Reg.hash r)) live.Liveness.Ssa.live_out.(bid);
      for idx = n - 1 downto 0 do
        let i = instrs.(idx) in
        let note = ref 0 in
        (match i.Instr.dst with
        | Some d ->
            let d = Reg.hash d in
            if mem d then remove d else note := 8
        | None -> ());
        Array.iteri
          (fun j u ->
            let u = Reg.hash u in
            if not (mem u) then begin
              note := !note lor (1 lsl j);
              add u
            end)
          i.Instr.srcs;
        notes.(idx) <- !note
      done;
      (* Entry point: live-in values and every φ destination coexist
         just after the entry parallel copy. *)
      let entry = live.Liveness.Ssa.live_in.(bid) in
      let dests = List.map (fun (p : Phi.t) -> Reg.hash p.Phi.dst) b.Block.phis in
      let cands () = List.map Reg.hash entry @ dests in
      for c = 0 to 1 do
        let n = ref 0 in
        let see p = if p land 1 = c && not (is_chosen p) then incr n in
        List.iter (fun r -> see (Reg.hash r)) entry;
        List.iter see dests;
        reduce bid c !n cands
      done;
      (* Instruction points. *)
      for idx = 0 to n - 1 do
        let i = instrs.(idx) in
        let srcs = i.Instr.srcs in
        let ns = Array.length srcs in
        let src j = Reg.hash srcs.(j) in
        (* Distinct sources: the first occurrence of each register. *)
        let first j =
          let p = src j in
          let rec go j' = j' >= j || (src j' <> p && go (j' + 1)) in
          go 0
        in
        (* Sources are sticky, so they count whether chosen or not;
           [free] already counts the unchosen ones. *)
        let chosen_srcs = [| 0; 0 |] in
        for j = 0 to ns - 1 do
          let p = src j in
          if first j && is_chosen p then
            chosen_srcs.(p land 1) <- chosen_srcs.(p land 1) + 1
        done;
        let is_src p =
          let rec go j = j < ns && (src j = p || go (j + 1)) in
          go 0
        in
        for c = 0 to 1 do
          reduce bid c (free.(c) + chosen_srcs.(c)) (fun () ->
              List.filter (fun p -> not (is_src p)) (members ()))
        done;
        let note = notes.(idx) in
        for j = 0 to ns - 1 do
          if note land (1 lsl j) <> 0 then remove (src j)
        done;
        match i.Instr.dst with
        | Some d ->
            let d = Reg.hash d in
            for c = 0 to 1 do
              reduce bid c
                (free.(c) + if d land 1 = c then 1 else 0)
                members
            done;
            if note land 8 = 0 then add d
        | None -> ()
      done;
      (* End point: successor φ-arguments are live here; relieving one
         means spilling the φ's destination, not the argument. *)
      Array.iter (fun u -> stick.(Reg.hash u) <- bid) b.Block.term.Instr.srcs;
      let succ_phis =
        match Cfg.succs cfg bid with
        | [ s ] -> (Cfg.block cfg s).Block.phis
        | _ -> []
      in
      List.iter
        (fun (p : Phi.t) ->
          if not (is_chosen (Reg.hash p.Phi.dst)) then
            stick.(Reg.hash (Phi.arg_for p ~pred:bid)) <- bid)
        succ_phis;
      let out = live.Liveness.Ssa.live_out.(bid) in
      let dests =
        List.filter_map
          (fun (p : Phi.t) ->
            let d = Reg.hash p.Phi.dst in
            if is_chosen d then None else Some d)
          succ_phis
      in
      let cands () =
        List.filter_map
          (fun r ->
            let p = Reg.hash r in
            if stick.(p) = bid then None else Some p)
          out
        @ dests
      in
      for c = 0 to 1 do
        let n = ref 0 in
        List.iter
          (fun r ->
            let p = Reg.hash r in
            if p land 1 = c && (stick.(p) = bid || not (is_chosen p)) then
              incr n)
          out;
        reduce bid c !n cands
      done)
    cfg;
  let chosen =
    List.fold_left
      (fun s p -> Reg.Set.add (Iloc.Flat.reg_of_packed p) s)
      Reg.Set.empty !chosen_rev
  in
  let stuck =
    if !stuck < 0 then None
    else Some (Printf.sprintf "block %s" (Cfg.block cfg !stuck).Block.label)
  in
  (chosen, stuck)

(* ------------------------------------------------------------------ *)
(* The spill rewrite                                                   *)

type write_src = W_reg of Reg.t | W_slot of int | W_op of Instr.op

(* Sequentialize one edge's memory-φ stores: writes target this round's
   fresh slots, but a write's source slot can itself be a destination on
   the same edge (two spilled φs trading values around a back edge), so
   emission follows the parallel-copy worklist over slots — a write is
   ready when no pending write still reads its destination slot, and a
   stuck state is a cycle, broken by hoisting one source into a
   temporary.  Register- and remat-sourced writes read no slot and are
   always ready. *)
let order_writes writes ~fresh_temp =
  let out = ref [] in
  let emit i = out := i :: !out in
  let rec go pending =
    match pending with
    | [] -> ()
    | _ -> (
        let reads_slot s =
          List.exists
            (fun (_, src, _) -> match src with W_slot s' -> s = s' | _ -> false)
            pending
        in
        match
          List.partition (fun (d, _, _) -> not (reads_slot d)) pending
        with
        | (_ :: _ as ready), blocked ->
            List.iter
              (fun (d, src, cls) ->
                match src with
                | W_reg r -> emit (Instr.spill r d)
                | W_slot s ->
                    let t = fresh_temp cls Tag.Bottom in
                    emit (Instr.reload t s);
                    emit (Instr.spill t d)
                | W_op op ->
                    let t = fresh_temp cls (Tag.Inst op) in
                    emit (Instr.make op ~dst:t []);
                    emit (Instr.spill t d))
              ready;
            go blocked
        | [], (d, W_slot s, cls) :: rest ->
            let t = fresh_temp cls Tag.Bottom in
            emit (Instr.reload t s);
            go ((d, W_reg t, cls) :: rest)
        | [], _ -> assert false)
  in
  go writes;
  List.rev !out

let rewrite_spills (cfg : Cfg.t) ~chosen ~tags ~infinite ~slots ~slot_counter =
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let is_remat r = Tag.is_inst (tag_of r) in
  let op_of r =
    match tag_of r with Tag.Inst op -> op | _ -> assert false
  in
  let slot_of r =
    match Reg.Tbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = !slot_counter in
        incr slot_counter;
        Reg.Tbl.replace slots r s;
        s
  in
  let fresh_temp cls tag =
    let t = Cfg.fresh_reg cfg cls in
    Reg.Tbl.replace tags t tag;
    Reg.Tbl.replace infinite t ();
    t
  in
  (* Per-predecessor edge tasks: argument preparations for surviving φs
     (reads — they see pre-copy slot contents, so they precede every
     store) and memory-φ stores (writes). *)
  let reads = Hashtbl.create 8 (* pred -> Instr.t list, reversed *) in
  let read_memo = Hashtbl.create 8 (* (pred, arg) -> temp *) in
  let writes = Hashtbl.create 8 (* pred -> (slot, src, cls) list, reversed *) in
  let push tbl pred x =
    Hashtbl.replace tbl pred
      (x :: Option.value (Hashtbl.find_opt tbl pred) ~default:[])
  in
  let read_temp pred arg =
    match Hashtbl.find_opt read_memo (pred, arg) with
    | Some t -> t
    | None ->
        let cls = Reg.cls arg in
        let t, i =
          if is_remat arg then
            let op = op_of arg in
            let t = fresh_temp cls (Tag.Inst op) in
            (t, Instr.make op ~dst:t [])
          else
            let t = fresh_temp cls Tag.Bottom in
            (t, Instr.reload t (slot_of arg))
        in
        Hashtbl.replace read_memo (pred, arg) t;
        push reads pred i;
        t
  in
  Cfg.iter_blocks
    (fun b ->
      b.Block.phis <-
        List.filter
          (fun (p : Phi.t) ->
            if Reg.Set.mem p.Phi.dst chosen then begin
              (* Spilled φ destination: the φ disappears.  A remat value
                 is recomputed at each use; a memory value becomes a
                 memory φ — every predecessor stores the edge's argument
                 into the destination's slot. *)
              if not (is_remat p.Phi.dst) then begin
                let dslot = slot_of p.Phi.dst in
                List.iter
                  (fun (pred, arg) ->
                    let src =
                      if Reg.Set.mem arg chosen then
                        if is_remat arg then W_op (op_of arg)
                        else W_slot (slot_of arg)
                      else W_reg arg
                    in
                    push writes pred (dslot, src, Reg.cls arg))
                  p.Phi.args
              end;
              false
            end
            else begin
              (* Surviving φ: spilled arguments are reloaded or
                 rematerialized at the end of the predecessor; one
                 temporary serves every φ reading the same value there. *)
              List.iter
                (fun (pred, arg) ->
                  if Reg.Set.mem arg chosen then
                    Phi.set_arg p ~pred (read_temp pred arg))
                p.Phi.args;
              true
            end)
          b.Block.phis)
    cfg;
  let preds =
    let tbl = Hashtbl.create 8 in
    Hashtbl.iter (fun p _ -> Hashtbl.replace tbl p ()) reads;
    Hashtbl.iter (fun p _ -> Hashtbl.replace tbl p ()) writes;
    Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort Int.compare
  in
  List.iter
    (fun pred ->
      (* φ-block predecessors are non-critical by construction: exactly
         one successor, terminator [jmp], so end-of-block placement is
         edge placement. *)
      assert (List.length (Cfg.succs cfg pred) = 1);
      let rs = List.rev (Option.value (Hashtbl.find_opt reads pred) ~default:[]) in
      let ws =
        List.rev (Option.value (Hashtbl.find_opt writes pred) ~default:[])
      in
      Block.append_before_term (Cfg.block cfg pred)
        (rs @ order_writes ws ~fresh_temp))
    preds;
  (* Instruction sites: the tag-directed spill-everywhere rewrite shared
     with the Chaitin–Briggs pipeline, against the same slot table so a
     value's body stores and φ-edge stores agree. *)
  ignore
    (Spill_code.insert ~slots cfg ~tags ~infinite
       ~spilled:(Reg.Set.elements chosen) ~slot_counter)

(* ------------------------------------------------------------------ *)
(* Chordal coloring                                                    *)

let color_chordal (cfg : Cfg.t) (dom : Dataflow.Dominance.t)
    (live : Liveness.Ssa.t) ~k =
  let color = Reg.Tbl.create 64 in
  let color_of r = Reg.Tbl.find color r in
  let cls_idx = function Reg.Int -> 0 | Reg.Float -> 1 in
  let max_used = [| -1; -1 |] in
  let visit bid =
    let b = Cfg.block cfg bid in
    let busy = [| Array.make (k Reg.Int) false; Array.make (k Reg.Float) false |] in
    let set r v = busy.(cls_idx (Reg.cls r)).(color_of r) <- v in
    List.iter (fun r -> set r true) live.Liveness.Ssa.live_in.(bid);
    let assign ?biased r =
      let ci = cls_idx (Reg.cls r) in
      let arr = busy.(ci) in
      let c =
        match biased with
        | Some c when not arr.(c) -> c
        | _ ->
            let rec first i =
              if i >= Array.length arr then
                raise
                  (Spill_code.Pressure_too_high
                     (Printf.sprintf
                        "%s: no free color for %s in %s — MaxLive exceeds k"
                        cfg.Cfg.name (Reg.to_string r) b.Block.label))
              else if arr.(i) then first (i + 1)
              else i
            in
            first 0
      in
      Reg.Tbl.replace color r c;
      arr.(c) <- true;
      if c > max_used.(ci) then max_used.(ci) <- c
    in
    (* φ destinations, biased toward an argument's color: an identity
       edge move later coalesces away at destruction. *)
    List.iter
      (fun (p : Phi.t) ->
        let arr = busy.(cls_idx (Reg.cls p.Phi.dst)) in
        let biased =
          List.find_map
            (fun (_, arg) ->
              match Reg.Tbl.find_opt color arg with
              | Some c when not arr.(c) -> Some c
              | _ -> None)
            p.Phi.args
        in
        assign ?biased p.Phi.dst)
      b.Block.phis;
    (* Death points, one backward sweep. *)
    let instrs = Array.of_list (b.Block.body @ [ b.Block.term ]) in
    let n = Array.length instrs in
    let dies = Array.make n [] in
    let dead_def = Array.make n [] in
    let live_now =
      ref
        (List.fold_left
           (fun s r -> Reg.Set.add r s)
           Reg.Set.empty live.Liveness.Ssa.live_out.(bid))
    in
    for idx = n - 1 downto 0 do
      let i = instrs.(idx) in
      List.iter
        (fun d ->
          if not (Reg.Set.mem d !live_now) then
            dead_def.(idx) <- d :: dead_def.(idx))
        (Instr.defs i);
      live_now :=
        List.fold_left (fun s d -> Reg.Set.remove d s) !live_now (Instr.defs i);
      List.iter
        (fun u ->
          if not (Reg.Set.mem u !live_now) then begin
            dies.(idx) <- u :: dies.(idx);
            live_now := Reg.Set.add u !live_now
          end)
        (Instr.uses i)
    done;
    (* [live_now] is now the block's entry set.  A φ destination outside
       it is dead from the entry point on — no use in the block, not
       live out — so it gives its color back before the first
       instruction, as a dead definition does after its own. *)
    List.iter
      (fun (p : Phi.t) ->
        if not (Reg.Set.mem p.Phi.dst !live_now) then set p.Phi.dst false)
      b.Block.phis;
    (* Forward assignment: free dying sources, then color the
       definition — biased toward a copy source's color. *)
    for idx = 0 to n - 1 do
      let i = instrs.(idx) in
      List.iter (fun u -> set u false) dies.(idx);
      (match i.Instr.dst with
      | Some d ->
          let biased =
            if Instr.is_copy i then Reg.Tbl.find_opt color i.Instr.srcs.(0)
            else None
          in
          assign ?biased d
      | None -> ());
      List.iter (fun d -> set d false) dead_def.(idx)
    done
  in
  (* Dominator preorder, explicit stack. *)
  let stack = ref [ cfg.Cfg.entry ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := List.rev_append (List.rev dom.Dataflow.Dominance.children.(b)) rest;
        visit b
  done;
  (color, max_used.(0) + 1, max_used.(1) + 1)

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)

let run ~mode ~machine ~max_rounds ~stats (input : Cfg.t) =
  let k = Machine.k_for machine in
  let cfg0, dom, loops =
    Stats.time stats ~round:0 Stats.Cfa (fun () ->
        let cfg0 = Cfg.split_critical_edges input in
        let dom = Dataflow.Dominance.compute cfg0 in
        (cfg0, dom, Dataflow.Loops.compute cfg0 dom))
  in
  (* SSA construction, value analysis, tag propagation.  Construct adds
     φs but never blocks or edges, so dominance and loop weights stay
     valid for the SSA form. *)
  let cfg, tags, n_values =
    Stats.time stats ~round:0 Stats.Renum (fun () ->
        let ssa = Ssa.Construct.run cfg0 in
        let vals = Ssa.Values.analyze ssa in
        let tags = Reg.Tbl.create 64 in
        (match mode with
        | Mode.Ssa_remat ->
            Array.iteri
              (fun i t ->
                match t with
                | Tag.Inst _ -> Reg.Tbl.replace tags (Ssa.Values.reg vals i) t
                | Tag.Top | Tag.Bottom -> ())
              (Remat_analysis.run ssa vals)
        | _ -> ());
        (ssa, tags, Ssa.Values.count vals))
  in
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let infinite = Reg.Tbl.create 16 in
  let slots = Reg.Tbl.create 16 in
  let slot_counter = ref 0 in
  let spilled_memory = ref Reg.Set.empty in
  let spilled_remat = ref Reg.Set.empty in
  let spillable r = not (Reg.Tbl.mem infinite r) in
  let rec rounds r =
    let cap, live =
      Stats.time stats ~round:r Stats.Liveness (fun () ->
          let cap = Liveness.Ssa.capacity cfg in
          (cap, Liveness.Ssa.compute ~cap cfg))
    in
    Stats.count stats ~round:r Stats.Liveness_runs 1;
    let chosen, stuck =
      Stats.time stats ~round:r Stats.Costs (fun () ->
          let cost = cost_table ~cap cfg loops tag_of in
          select cfg live ~cap ~k ~cost ~spillable)
    in
    if Reg.Set.is_empty chosen then begin
      (match stuck with
      | Some where ->
          raise
            (Spill_code.Pressure_too_high
               (Printf.sprintf
                  "%s: register pressure irreducible at %s (k=%d/%d)"
                  cfg.Cfg.name where machine.Machine.k_int
                  machine.Machine.k_float))
      | None -> ());
      (* MaxLive of the final form belongs to this round's liveness. *)
      let mi, mf =
        Stats.time stats ~round:r Stats.Liveness (fun () ->
            Liveness.Ssa.max_live ~cap cfg live)
      in
      (r, live, mi, mf)
    end
    else if r >= max_rounds then
      raise
        (Spill_code.Pressure_too_high
           (Printf.sprintf "%s: SSA spilling did not converge after %d rounds"
              cfg.Cfg.name max_rounds))
    else begin
      Stats.count stats ~round:r Stats.Spilled_ranges (Reg.Set.cardinal chosen);
      Reg.Set.iter
        (fun v ->
          if Tag.is_inst (tag_of v) then
            spilled_remat := Reg.Set.add v !spilled_remat
          else spilled_memory := Reg.Set.add v !spilled_memory)
        chosen;
      Stats.time stats ~round:r Stats.Spill (fun () ->
          rewrite_spills cfg ~chosen ~tags ~infinite ~slots ~slot_counter);
      rounds (r + 1)
    end
  in
  let nrounds, live, mi, mf = rounds 1 in
  let max_live_int = Array.fold_left max 0 mi in
  let max_live_float = Array.fold_left max 0 mf in
  let color, max_colors_int, max_colors_float =
    Stats.time stats ~round:nrounds Stats.Select (fun () ->
        color_chordal cfg dom live ~k)
  in
  (* Rewrite to physical registers (identity copies coalesce away) and
     destruct the colored SSA. *)
  let coalesced = ref 0 in
  Stats.time stats ~round:nrounds Stats.Coalesce (fun () ->
      let rename r = Reg.make (Reg.Tbl.find color r) (Reg.cls r) in
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun (p : Phi.t) ->
              p.Phi.dst <- rename p.Phi.dst;
              p.Phi.args <-
                List.map (fun (pred, a) -> (pred, rename a)) p.Phi.args)
            b.Block.phis;
          b.Block.body <-
            List.filter_map
              (fun i ->
                let i = Instr.map_regs rename i in
                match (i.Instr.op, i.Instr.dst) with
                | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) ->
                    incr coalesced;
                    None
                | _ -> Some i)
              b.Block.body;
          b.Block.term <- Instr.map_regs rename b.Block.term)
        cfg;
      (* Cycle-scratch busy sets, one per φ-edge: colors live across the
         edge plus every parallel-copy destination.  Precomputed now —
         [run_colored] clears the φ lists while gathering moves, before
         it asks for a scratch, so the successor's φs cannot be
         consulted on demand. *)
      let edge_used = Hashtbl.create 8 in
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun (p : Phi.t) ->
              List.iter
                (fun (pred, _) ->
                  let ui, uf =
                    match Hashtbl.find_opt edge_used pred with
                    | Some x -> x
                    | None ->
                        let ui = Array.make (k Reg.Int) false in
                        let uf = Array.make (k Reg.Float) false in
                        List.iter
                          (fun r ->
                            let arr = if Reg.is_float r then uf else ui in
                            arr.(Reg.Tbl.find color r) <- true)
                          live.Liveness.Ssa.live_out.(pred);
                        Hashtbl.replace edge_used pred (ui, uf);
                        (ui, uf)
                  in
                  let arr = if Reg.is_float p.Phi.dst then uf else ui in
                  arr.(Reg.id p.Phi.dst) <- true)
                p.Phi.args)
            b.Block.phis)
        cfg;
      let temp_for ~pred cls =
        match Hashtbl.find_opt edge_used pred with
        | None -> None
        | Some (ui, uf) ->
            let used = match cls with Reg.Int -> ui | Reg.Float -> uf in
            let kc = Array.length used in
            let rec first i =
              if i >= kc then None
              else if used.(i) then first (i + 1)
              else Some (Reg.make i cls)
            in
            first 0
      in
      let fresh_slot () =
        let s = !slot_counter in
        incr slot_counter;
        s
      in
      let dstats = Ssa.Destruct.run_colored ~temp_for ~fresh_slot cfg in
      coalesced := !coalesced + dstats.Ssa.Destruct.coalesced;
      Stats.count stats ~round:nrounds Stats.Coalesced_copies !coalesced);
  {
    cfg;
    rounds = nrounds;
    spilled_memory = Reg.Set.cardinal !spilled_memory;
    spilled_remat = Reg.Set.cardinal !spilled_remat;
    spill_slots = !slot_counter;
    n_values;
    coalesced = !coalesced;
    max_live_int;
    max_live_float;
    max_colors_int;
    max_colors_float;
  }
