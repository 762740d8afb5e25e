type t = {
  name : string;
  mutable blocks : Block.t array;
  entry : int;
  symbols : Symbol.t list;
  supply : Reg.Supply.t;
  mutable succs : int list array;
  mutable preds : int list array;
}

let n_blocks t = Array.length t.blocks
let block t i = t.blocks.(i)
let entry_block t = t.blocks.(t.entry)
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)

let label_table blocks =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (b : Block.t) ->
      if Hashtbl.mem tbl b.label then
        invalid_arg (Printf.sprintf "Cfg: duplicate label %s" b.label);
      Hashtbl.add tbl b.label b.id)
    blocks;
  tbl

let find_label t l =
  match
    Array.find_opt (fun (b : Block.t) -> String.equal b.label l) t.blocks
  with
  | Some b -> b.id
  | None -> invalid_arg (Printf.sprintf "Cfg.find_label: %s" l)

let label_lookup blocks =
  let tbl = label_table blocks in
  fun l ->
    match Hashtbl.find_opt tbl l with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "Cfg: dangling label %s" l)

let label_index t = label_lookup t.blocks

let compute_edges blocks =
  let find = label_lookup blocks in
  let n = Array.length blocks in
  let succs = Array.make n [] and preds = Array.make n [] in
  Array.iter
    (fun (b : Block.t) ->
      (* Ascending and unique: a cbr with both arms equal yields a
         single CFG edge.  Terminators name at most two targets, so the
         common shapes skip the general sort. *)
      let ts =
        match Instr.targets b.term with
        | [] -> []
        | [ l ] -> [ find l ]
        | [ l1; l2 ] ->
            let i = find l1 and j = find l2 in
            if i = j then [ i ] else if i < j then [ i; j ] else [ j; i ]
        | ls -> List.sort_uniq Int.compare (List.map find ls)
      in
      succs.(b.id) <- ts;
      List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) ts)
    blocks;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  (succs, preds)

let rebuild_edges t =
  let succs, preds = compute_edges t.blocks in
  t.succs <- succs;
  t.preds <- preds

let iter_blocks f t = Array.iter f t.blocks
let fold_blocks f init t = Array.fold_left f init t.blocks

let iter_instrs f t =
  Array.iter (fun b -> Block.iter_instrs (f b) b) t.blocks

let max_reg_id t =
  let m = ref 0 in
  let see (r : Reg.t) = if Reg.id r > !m then m := Reg.id r in
  (* Operands read in place: every [make] (hence every critical-edge
     split) runs this over the whole routine, so no per-instruction
     [defs]/[uses] lists. *)
  iter_instrs
    (fun _ (i : Instr.t) ->
      Option.iter see i.dst;
      Array.iter see i.srcs)
    t;
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (p : Phi.t) ->
          see p.dst;
          List.iter (fun (_, r) -> see r) p.args)
        b.phis)
    t.blocks;
  !m

let fresh_reg t cls = Reg.Supply.fresh t.supply cls

let all_regs t =
  let acc = ref Reg.Set.empty in
  let see r = acc := Reg.Set.add r !acc in
  iter_instrs
    (fun _ i ->
      List.iter see (Instr.defs i);
      List.iter see (Instr.uses i))
    t;
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (p : Phi.t) ->
          see p.dst;
          List.iter (fun (_, r) -> see r) p.args)
        b.phis)
    t.blocks;
  !acc

let make ~name ?(symbols = []) blocks =
  let blocks = Array.of_list blocks in
  Array.iteri
    (fun i (b : Block.t) ->
      if b.id <> i then invalid_arg "Cfg.make: blocks must be numbered densely")
    blocks;
  if Array.length blocks = 0 then invalid_arg "Cfg.make: empty routine";
  let succs, preds = compute_edges blocks in
  let t =
    {
      name;
      blocks;
      entry = 0;
      symbols;
      supply = Reg.Supply.create ();
      succs;
      preds;
    }
  in
  let seed = max_reg_id t in
  let supply = Reg.Supply.create ~start:seed () in
  { t with supply }

let in_ssa t = Array.exists (fun (b : Block.t) -> b.phis <> []) t.blocks

let copy t =
  let blocks =
    Array.map
      (fun (b : Block.t) ->
        {
          b with
          phis = List.map (fun (p : Phi.t) -> { p with Phi.args = p.args }) b.phis;
          body = b.body;
        })
      t.blocks
  in
  {
    t with
    blocks;
    succs = Array.map (fun l -> l) t.succs;
    preds = Array.map (fun l -> l) t.preds;
    supply = Reg.Supply.create ~start:(Reg.Supply.last t.supply) ();
  }

let drop_unreachable t =
  let n = n_blocks t in
  let reachable = Array.make n false in
  let rec visit b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter visit t.succs.(b)
    end
  in
  visit t.entry;
  if Array.for_all Fun.id reachable then t
  else begin
    let kept = ref [] in
    Array.iter
      (fun (b : Block.t) -> if reachable.(b.id) then kept := b :: !kept)
      t.blocks;
    let blocks =
      List.rev !kept
      |> List.mapi (fun id (b : Block.t) ->
             Block.make ~id ~label:b.label ~phis:b.phis ~body:b.body
               ~term:b.term ())
    in
    make ~name:t.name ~symbols:t.symbols blocks
  end

let split_critical_edges t =
  if in_ssa t then invalid_arg "Cfg.split_critical_edges: routine is in SSA";
  let t = drop_unreachable t in
  let n = n_blocks t in
  let find_label = label_index t in
  let next_id = ref n in
  let extra = ref [] in
  let blocks =
    Array.map
      (fun (b : Block.t) ->
        { b with body = b.body }
        (* fresh record so mutation below stays local *))
      t.blocks
  in
  Array.iter
    (fun (b : Block.t) ->
      match b.term.op with
      | Instr.Cbr (l1, l2) when String.equal l1 l2 ->
          (* Degenerate conditional: normalize to an unconditional jump so
             no terminator with register operands can have a predecessor
             edge that later receives φ-removal or split copies. *)
          blocks.(b.id) <- { (blocks.(b.id)) with term = Instr.jmp l1 }
      | Instr.Cbr (l1, l2) ->
          let maybe_split l =
            let target = find_label l in
            if List.length t.preds.(target) > 1 then (
              let id = !next_id in
              incr next_id;
              let label = Printf.sprintf ".split%d.%s" id l in
              let nb =
                Block.make ~id ~label ~body:[] ~term:(Instr.jmp l) ()
              in
              extra := nb :: !extra;
              label)
            else l
          in
          let l1' = maybe_split l1 and l2' = maybe_split l2 in
          if l1' != l1 || l2' != l2 then
            blocks.(b.id) <-
              { (blocks.(b.id)) with term = Instr.cbr b.term.srcs.(0) l1' l2' }
      | _ -> ())
    t.blocks;
  let all = Array.fold_right List.cons blocks (List.rev !extra) in
  let cfg = make ~name:t.name ~symbols:t.symbols all in
  cfg

let structural_equal a b =
  let phi_equal (p : Phi.t) (q : Phi.t) =
    Reg.equal p.dst q.dst
    && List.equal
         (fun (i, r) (j, s) -> i = j && Reg.equal r s)
         p.args q.args
  in
  let block_equal (x : Block.t) (y : Block.t) =
    x.id = y.id
    && String.equal x.label y.label
    && List.equal phi_equal x.phis y.phis
    && List.equal Instr.equal x.body y.body
    && Instr.equal x.term y.term
  in
  String.equal a.name b.name
  && a.entry = b.entry
  && List.equal Symbol.equal a.symbols b.symbols
  && Array.length a.blocks = Array.length b.blocks
  && Array.for_all2 block_equal a.blocks b.blocks

(* Content hash: a digest of exactly the structure [structural_equal]
   compares — name, symbols, entry, and per-block labels, φ-nodes, bodies
   and terminators.  Supply watermark and edge caches are excluded, so a
   parse of a printed routine hashes identically to the original.  Every
   field is length- or tag-prefixed, making the serialization injective;
   float payloads are keyed by their bits after the identifications
   [Instr.equal] makes (every NaN to one canonical NaN, -0 to +0), so
   structurally equal routines hash equally. *)
let content_hash t =
  let b = Buffer.create 4096 in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ';'
  in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  let flt x =
    let bits =
      if Float.is_nan x then Int64.bits_of_float Float.nan
      else Int64.bits_of_float (x +. 0.)
    in
    Buffer.add_string b (Int64.to_string bits);
    Buffer.add_char b ';'
  in
  let reg r = int (Reg.hash r) in
  let rel (r : Instr.rel) =
    int (match r with Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5)
  in
  let op (o : Instr.op) =
    match o with
    | Ldi i -> int 0; int i
    | Lfi x -> int 1; flt x
    | Laddr (s, off) -> int 2; str s; int off
    | Lfp off -> int 3; int off
    | Ldro (s, off) -> int 4; str s; int off
    | Add -> int 5
    | Sub -> int 6
    | Mul -> int 7
    | Div -> int 8
    | Rem -> int 9
    | Cmp r -> int 10; rel r
    | Addi i -> int 11; int i
    | Subi i -> int 12; int i
    | Muli i -> int 13; int i
    | Fadd -> int 14
    | Fsub -> int 15
    | Fmul -> int 16
    | Fdiv -> int 17
    | Fcmp r -> int 18; rel r
    | Fneg -> int 19
    | Fabs -> int 20
    | Itof -> int 21
    | Ftoi -> int 22
    | Copy -> int 23
    | Load -> int 24
    | Loadx -> int 25
    | Loadi i -> int 26; int i
    | Store -> int 27
    | Storex -> int 28
    | Storei i -> int 29; int i
    | Spill s -> int 30; int s
    | Reload s -> int 31; int s
    | Jmp l -> int 32; str l
    | Cbr (l1, l2) -> int 33; str l1; str l2
    | Ret -> int 34
    | Print -> int 35
    | Nop -> int 36
  in
  let instr (i : Instr.t) =
    op i.op;
    (match i.dst with None -> int (-1) | Some r -> reg r);
    int (Array.length i.srcs);
    Array.iter reg i.srcs
  in
  str t.name;
  int t.entry;
  int (List.length t.symbols);
  List.iter
    (fun (s : Symbol.t) ->
      str s.name;
      int s.size;
      int (if s.readonly then 1 else 0);
      match s.init with
      | Symbol.Uninit -> int 0
      | Symbol.Int_elts xs ->
          int 1;
          int (List.length xs);
          List.iter int xs
      | Symbol.Float_elts xs ->
          int 2;
          int (List.length xs);
          List.iter flt xs)
    t.symbols;
  int (Array.length t.blocks);
  Array.iter
    (fun (blk : Block.t) ->
      str blk.label;
      int (List.length blk.phis);
      List.iter
        (fun (p : Phi.t) ->
          reg p.dst;
          int (List.length p.args);
          List.iter
            (fun (pred, r) ->
              int pred;
              reg r)
            p.args)
        blk.phis;
      int (List.length blk.body);
      List.iter instr blk.body;
      instr blk.term)
    t.blocks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp ppf t =
  Format.fprintf ppf "@[<v>routine %s@," t.name;
  List.iter (fun s -> Format.fprintf ppf "  data %a@," Symbol.pp s) t.symbols;
  Array.iter (fun b -> Format.fprintf ppf "%a@," Block.pp b) t.blocks;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
