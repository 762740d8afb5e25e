(* The flat arena bridge: [Flat.to_routine (Flat.of_routine r)] must be
   structurally identical to [r] for every routine the generator can
   produce, and for directed corners the generator is unlikely to hit
   (empty blocks, three-source instructions, float immediates including
   NaN, every opcode).  Also covers the explicit [Instr.equal]/
   [Instr.hash] pair the bridge's interning relies on. *)

module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg
module Flat = Iloc.Flat
module Symbol = Iloc.Symbol

let roundtrip cfg = Flat.to_routine (Flat.of_routine cfg)

let check_roundtrip name cfg =
  let back = roundtrip cfg in
  if not (Cfg.structural_equal back cfg) then
    Alcotest.failf "%s: round-trip not structurally equal:@.%s@.vs@.%s" name
      (Cfg.to_string cfg) (Cfg.to_string back)

(* --- directed: one routine exercising every opcode ------------------- *)

let ri n = Reg.make n Reg.Int
let rf n = Reg.make n Reg.Float

let every_opcode_cfg () =
  let a = ri 1 and b = ri 2 and c = ri 3 in
  let x = rf 4 and y = rf 5 and z = rf 6 in
  let sym = Symbol.make "tab" 8 in
  let ro = Symbol.make ~readonly:true ~init:(Symbol.Int_elts [ 7 ]) "ktab" 4 in
  let b0 =
    Block.make ~id:0 ~label:"entry"
      ~body:
        [
          Instr.ldi a 42;
          Instr.lfi x 3.5;
          Instr.lfi y Float.nan;
          Instr.laddr b ~off:3 "tab";
          Instr.lfp c 16;
          Instr.ldro b "ktab" 2;
          Instr.add c a b;
          Instr.sub c a b;
          Instr.mul c a b;
          Instr.div c a b;
          Instr.rem c a b;
          Instr.cmp Instr.Lt c a b;
          Instr.addi c a 5;
          Instr.subi c a (-5);
          Instr.muli c a 7;
          Instr.fadd z x y;
          Instr.fsub z x y;
          Instr.fmul z x y;
          Instr.fdiv z x y;
          Instr.fcmp Instr.Ge c x y;
          Instr.fneg z x;
          Instr.fabs z x;
          Instr.itof z a;
          Instr.ftoi c x;
          Instr.copy b a;
          Instr.load c a;
          Instr.loadx c a b;
          Instr.loadi c a 1;
          Instr.store ~value:c ~addr:a;
          Instr.storex ~value:z ~base:a ~idx:b;
          Instr.storei ~value:c ~base:a ~off:2;
          Instr.spill c 0;
          Instr.reload c 0;
          Instr.print_ c;
          Instr.nop;
        ]
      ~term:(Instr.cbr a "left" "right") ()
  in
  let b1 = Block.make ~id:1 ~label:"left" ~body:[] ~term:(Instr.jmp "join") () in
  let b2 =
    Block.make ~id:2 ~label:"right" ~body:[] ~term:(Instr.jmp "join") ()
  in
  let b3 =
    Block.make ~id:3 ~label:"join"
      ~body:[ Instr.copy c a ]
      ~term:(Instr.ret (Some c)) ()
  in
  Cfg.make ~name:"every_opcode" ~symbols:[ sym; ro ] [ b0; b1; b2; b3 ]

let test_every_opcode () = check_roundtrip "every_opcode" (every_opcode_cfg ())

let test_empty_blocks () =
  (* Blocks whose body is empty, a cbr with equal arms, and a bare ret. *)
  let a = ri 1 in
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi a 1 ]
      ~term:(Instr.cbr a "mid" "mid") ()
  in
  let b1 = Block.make ~id:1 ~label:"mid" ~body:[] ~term:(Instr.jmp "out") () in
  let b2 = Block.make ~id:2 ~label:"out" ~body:[] ~term:(Instr.ret None) () in
  check_roundtrip "empty_blocks" (Cfg.make ~name:"empty_blocks" [ b0; b1; b2 ])

let test_float_immediates () =
  let x = rf 1 in
  let specials =
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e308; 2.5 ]
  in
  let body = List.map (Instr.lfi x) specials @ [ Instr.print_ x ] in
  let b0 = Block.make ~id:0 ~label:"entry" ~body ~term:(Instr.ret None) () in
  let cfg = Cfg.make ~name:"floats" [ b0 ] in
  check_roundtrip "float_immediates" cfg;
  (* Interning must not identify distinct bit patterns (-0.0 vs 0.0) and
     must identify repeated ones. *)
  let f = Flat.of_routine cfg in
  if Array.length f.Flat.floats <> List.length specials then
    Alcotest.failf "float pool has %d entries, expected %d"
      (Array.length f.Flat.floats) (List.length specials)

let test_supply_preserved () =
  let cfg = every_opcode_cfg () in
  ignore (Cfg.fresh_reg cfg Reg.Int);
  ignore (Cfg.fresh_reg cfg Reg.Float);
  let before = Reg.Supply.last cfg.Cfg.supply in
  let back = roundtrip cfg in
  Alcotest.(check int) "supply watermark" before
    (Reg.Supply.last back.Cfg.supply)

let test_edges_match () =
  let cfg = every_opcode_cfg () in
  let f = Flat.of_routine cfg in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "succs of %d" b)
      (Cfg.succs cfg b) (Flat.succs_list f b);
    Alcotest.(check (list int))
      (Printf.sprintf "preds of %d" b)
      (Cfg.preds cfg b) (Flat.preds_list f b)
  done

let test_splice_identity () =
  (* Copying every slot through a Splice builder must reproduce the
     arena exactly. *)
  let cfg = every_opcode_cfg () in
  let f = Flat.of_routine cfg in
  let b = Flat.Splice.create f in
  for blk = 0 to Flat.n_blocks f - 1 do
    for slot = Flat.block_first f blk to Flat.block_term f blk do
      Flat.Splice.emit_slot b slot
    done;
    Flat.Splice.close_block b
  done;
  let f' = Flat.Splice.finish b ~supply_last:f.Flat.supply_last in
  if not (Cfg.structural_equal (Flat.to_routine f') cfg) then
    Alcotest.fail "splice identity: decoded routine differs"

let test_rejects_ssa () =
  (* A diamond with a redefinition on each arm, so construction has to
     place a φ at the join. *)
  let a = ri 1 in
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi a 0 ]
      ~term:(Instr.cbr a "l" "r") ()
  in
  let b1 =
    Block.make ~id:1 ~label:"l" ~body:[ Instr.ldi a 1 ]
      ~term:(Instr.jmp "j") ()
  in
  let b2 =
    Block.make ~id:2 ~label:"r" ~body:[ Instr.ldi a 2 ]
      ~term:(Instr.jmp "j") ()
  in
  let b3 = Block.make ~id:3 ~label:"j" ~body:[] ~term:(Instr.ret (Some a)) () in
  let cfg = Ssa.Construct.run (Cfg.make ~name:"diamond" [ b0; b1; b2; b3 ]) in
  if not (Cfg.in_ssa cfg) then Alcotest.fail "expected a φ at the join";
  match Flat.of_routine cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_routine accepted an SSA routine"

(* --- Instr.equal / Instr.hash ---------------------------------------- *)

let test_instr_equal () =
  let a = ri 1 and b = ri 2 in
  let x = rf 3 in
  let checks =
    [
      (Instr.ldi a 4, Instr.ldi a 4, true);
      (Instr.ldi a 4, Instr.ldi a 5, false);
      (Instr.ldi a 4, Instr.ldi b 4, false);
      (Instr.ldi a 4, Instr.addi a a 4, false);
      (Instr.lfi x Float.nan, Instr.lfi x Float.nan, true);
      (Instr.lfi x 0.0, Instr.lfi x (-0.0), true);
      (* Float.equal semantics *)
      (Instr.lfi x 1.0, Instr.lfi x 2.0, false);
      (Instr.laddr a "s", Instr.laddr a "s", true);
      (Instr.laddr a "s", Instr.laddr a "t", false);
      (Instr.laddr a ~off:1 "s", Instr.laddr a ~off:2 "s", false);
      (Instr.cmp Instr.Lt a a b, Instr.cmp Instr.Lt a a b, true);
      (Instr.cmp Instr.Lt a a b, Instr.cmp Instr.Le a a b, false);
      (Instr.add a a b, Instr.add a a b, true);
      (Instr.add a a b, Instr.add a b a, false);
      (Instr.jmp "l", Instr.jmp "l", true);
      (Instr.jmp "l", Instr.jmp "m", false);
      (Instr.cbr a "l" "m", Instr.cbr a "l" "m", true);
      (Instr.cbr a "l" "m", Instr.cbr a "m" "l", false);
      (Instr.ret None, Instr.ret None, true);
      (Instr.ret None, Instr.ret (Some a), false);
      (Instr.spill a 1, Instr.spill a 1, true);
      (Instr.spill a 1, Instr.spill a 2, false);
    ]
  in
  List.iteri
    (fun k (i, j, expect) ->
      if Instr.equal i j <> expect then
        Alcotest.failf "equal case %d (%s vs %s): expected %b" k
          (Instr.to_string i) (Instr.to_string j) expect;
      if expect && Instr.hash i <> Instr.hash j then
        Alcotest.failf "hash case %d: equal instructions hash differently" k)
    checks

let test_hash_spreads () =
  (* Not a correctness requirement, but catches a degenerate hash. *)
  let a = ri 1 in
  let hs =
    List.init 64 (fun n -> Instr.hash (Instr.ldi a n))
    |> List.sort_uniq Int.compare
  in
  if List.length hs < 32 then Alcotest.fail "Instr.hash collapses immediates"

(* --- QCheck round-trip over generated routines ----------------------- *)

let gen_configs =
  [
    ("default", Fuzz.Gen.default);
    ("high_pressure", Fuzz.Gen.high_pressure);
    ( "deep",
      { Fuzz.Gen.default with Fuzz.Gen.max_depth = 4; max_stmts = 24 } );
    ( "mem_heavy",
      { Fuzz.Gen.high_pressure with Fuzz.Gen.mem_weight = 12 } );
    ( "nk_heavy",
      { Fuzz.Gen.default with Fuzz.Gen.never_killed_weight = 12 } );
  ]

let roundtrip_prop (name, config) =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "flat round-trip (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let back = roundtrip cfg in
      if not (Cfg.structural_equal back cfg) then
        QCheck.Test.fail_reportf "seed %d: round-trip differs" seed
      else true)

let liveness_flat_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat liveness ≡ structured (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let fl = Flat.of_routine cfg in
      let dense = Dataflow.Liveness.compute cfg in
      let flat = Reference.Liveness_flat.compute fl in
      let bound = Dataflow.Liveness.Boundary.compute fl in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        let open Dataflow.Liveness in
        if
          not
            (Dataflow.Bitset.equal dense.live_in.(b) flat.live_in.(b)
            && Dataflow.Bitset.equal dense.live_out.(b) flat.live_out.(b)
            && Dataflow.Bitset.equal dense.ue.(b) flat.ue.(b)
            && Dataflow.Bitset.equal dense.kill.(b) flat.kill.(b))
        then
          QCheck.Test.fail_reportf "seed %d: flat sets differ at block %d" seed
            b;
        (* Boundary sets, reindexed through [uindex], must equal the
           dense boundary sets exactly. *)
        let to_regs uindex set =
          Dataflow.Bitset.fold
            (fun i acc -> Dataflow.Reg_index.reg uindex i :: acc)
            set []
          |> List.rev
        in
        let eq_regs a b = List.equal Reg.equal a b in
        if
          not
            (eq_regs (live_in dense b)
               (to_regs bound.Boundary.uindex bound.Boundary.live_in.(b))
            && eq_regs (live_out dense b)
                 (to_regs bound.Boundary.uindex bound.Boundary.live_out.(b)))
        then
          QCheck.Test.fail_reportf "seed %d: boundary sets differ at block %d"
            seed b
      done;
      true)

(* --- renumber A/B: flat-native pass vs the structured oracle -------- *)

let tag_list tbl =
  Reg.Tbl.fold (fun r t acc -> (r, t) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)
  |> List.map (fun (r, t) ->
         Printf.sprintf "%s:%s" (Reg.to_string r) (Remat.Tag.to_string t))

let renumber_ab_check ~what ~mode cfg =
  let cfg = Cfg.split_critical_edges cfg in
  let s = Reference.Renumber.run mode cfg in
  let f = Remat.Renumber.run_flat mode (Flat.of_routine cfg) in
  let fcfg = Flat.to_routine f.Remat.Renumber.fl in
  if not (Cfg.structural_equal fcfg s.Reference.Renumber.cfg) then
    Alcotest.failf "%s: flat renumber differs:@.%s@.vs@.%s" what
      (Cfg.to_string s.Reference.Renumber.cfg)
      (Cfg.to_string fcfg);
  Alcotest.(check int)
    (what ^ ": supply watermark")
    (Reg.Supply.last s.Reference.Renumber.cfg.Cfg.supply)
    (Reg.Supply.last fcfg.Cfg.supply);
  Alcotest.(check int) (what ^ ": n_values") s.Reference.Renumber.n_values
    f.Remat.Renumber.f_n_values;
  Alcotest.(check int)
    (what ^ ": n_live_ranges")
    s.Reference.Renumber.n_live_ranges f.Remat.Renumber.f_n_live_ranges;
  let pair (d, sr) = Printf.sprintf "%s<-%s" (Reg.to_string d) (Reg.to_string sr) in
  Alcotest.(check (list string))
    (what ^ ": split pairs")
    (List.map pair s.Reference.Renumber.split_pairs)
    (List.map pair f.Remat.Renumber.f_split_pairs);
  Alcotest.(check (list string))
    (what ^ ": tags")
    (tag_list s.Reference.Renumber.tags)
    (tag_list f.Remat.Renumber.f_tags)

let renumber_modes =
  [
    Remat.Mode.No_remat;
    Remat.Mode.Chaitin_remat;
    Remat.Mode.Briggs_remat;
    Remat.Mode.Briggs_remat_phi_splits;
  ]

let renumber_ab_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat renumber ≡ structured (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      List.iter
        (fun mode ->
          renumber_ab_check
            ~what:
              (Printf.sprintf "seed %d, %s" seed (Remat.Mode.to_string mode))
            ~mode (Cfg.copy cfg))
        renumber_modes;
      true)

(* --- graph: build ≡ the Reference.Graph oracle ----------------------- *)

(* The allocator's graph of a routine against the definition read off
   dense liveness rows: same edges, same degrees and significant-
   neighbor counts, and adjacency in first-emission order (the
   fingerprint prints vectors in order, so a reordering fails, not just
   a set difference). *)
let tiny_k =
  Remat.Machine.k_for (Remat.Machine.make ~name:"tiny" ~k_int:6 ~k_float:4)

let graph_vs_reference fl =
  let g =
    Remat.Interference.build ~k:tiny_k
      (Dataflow.Reg_index.of_flat fl)
      fl
      (Dataflow.Liveness.Boundary.compute fl)
  in
  (g, Reference.Graph.of_graph g, Reference.Graph.fingerprint ~k:tiny_k fl)

(* [build]'s [on_pairs] report, (emitted, dropped), against the
   oracle's: every candidate pair emitted, duplicates counted as
   dropped.  [bench scale]'s pairs and dupes counters are this report. *)
let pair_counts fl =
  let built = ref None in
  ignore
    (Remat.Interference.build
       ~on_pairs:(fun ~emitted ~dropped -> built := Some (emitted, dropped))
       (Dataflow.Reg_index.of_flat fl)
       fl
       (Dataflow.Liveness.Boundary.compute fl));
  let emitted = ref 0 and seen = Hashtbl.create 1024 in
  ignore
    (Reference.Graph.iter_emissions fl (fun a b ->
         incr emitted;
         Hashtbl.replace seen (min a b, max a b) ()));
  (!built, Some (!emitted, !emitted - Hashtbl.length seen))

let show_counts = function
  | Some (e, d) -> Printf.sprintf "emitted %d, dropped %d" e d
  | None -> "no report"

let pair_counts_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "build's pair counters ≡ Reference.Graph (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let built, oracle =
        pair_counts (Flat.of_routine (Fuzz.Gen.generate ~config seed))
      in
      if built <> oracle then
        QCheck.Test.fail_reportf "seed %d: build reports %s, the oracle %s"
          seed (show_counts built) (show_counts oracle)
      else true)

(* The routine's candidate pairs frozen as a [Csr] (one node past
   [dense_node_limit], the extra nodes isolated) against the [Dense]
   graph [build] makes of the same routine, then both put through the
   merges coalescing would try: each copy, in code order, whose ends are
   still distinct and do not interfere.  Every observable of the
   routine's nodes must agree after the build and after each merge, so
   the [Csr]'s tombstones and overlay see real graphs, not only random
   ones. *)
let csr_merge_prop (name, config) =
  QCheck.Test.make ~count:25
    ~name:(Printf.sprintf "Csr graph ≡ built graph under copy merges (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let module G = Remat.Interference in
      let cfg = Fuzz.Gen.generate ~config seed in
      let fl = Flat.of_routine cfg in
      let k _ = 4 in
      let g =
        G.build ~k
          (Dataflow.Reg_index.of_flat fl)
          fl
          (Dataflow.Liveness.Boundary.compute fl)
      in
      let pairs = ref [] in
      ignore
        (Reference.Graph.iter_emissions fl (fun a b -> pairs := (a, b) :: !pairs));
      let c = G.of_edges ~k (G.dense_node_limit + 1) (List.rev !pairs) in
      (match (g.G.edges, c.G.edges) with
      | G.Dense _, G.Csr _ -> ()
      | _ -> QCheck.Test.fail_report "expected a Dense and a Csr edge set");
      let n = G.n_nodes g in
      let observe ~full x =
        List.init n (fun i ->
            ( G.alive x i,
              G.find x i,
              G.degree x i,
              G.sig_neighbors x i,
              G.neighbors x i,
              if full then List.init n (fun j -> G.interfere x i j) else [] ))
      in
      let step ~full what =
        if observe ~full g <> observe ~full c || G.n_edges g <> G.n_edges c then
          QCheck.Test.fail_reportf "seed %d: graphs differ after %s" seed what
      in
      step ~full:true "the build";
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun (i : Instr.t) ->
              if Instr.is_copy i then
                match Instr.defs i with
                | [ d ] ->
                    let keep = G.find g (G.index g d)
                    and drop = G.find g (G.index g i.Instr.srcs.(0)) in
                    if keep <> drop && not (G.interfere g keep drop) then begin
                      G.merge g ~keep ~drop;
                      G.merge c ~keep ~drop;
                      step ~full:false (Printf.sprintf "merge %d <- %d" keep drop)
                    end
                | _ -> ())
            b.Block.body)
        cfg;
      step ~full:true "the merges";
      true)

let graph_reference_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "graph ≡ Reference.Graph (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let fl = Flat.of_routine (Fuzz.Gen.generate ~config seed) in
      let _, a, b = graph_vs_reference fl in
      if not (String.equal a b) then
        QCheck.Test.fail_reportf "seed %d: graph differs from the oracle:@.%s@.vs@.%s"
          seed a b
      else true)

let test_graph_over_limit () =
  (* Cross [dense_node_limit], so the graph freezes its edges as a [Csr]
     rather than the bit matrix.  A window-8 dependence chain keeps the
     edge count linear in n, so the oracle stays fast. *)
  let n = Remat.Interference.dense_node_limit + 300 in
  let r i = ri (i + 1) in
  let body = ref [ Instr.ldi (r 0) 1 ] in
  for i = 1 to n - 1 do
    body := Instr.add (r i) (r (i - 1)) (r (max 0 (i - 8))) :: !body
  done;
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:(List.rev !body)
      ~term:(Instr.ret (Some (r (n - 1)))) ()
  in
  let fl = Flat.of_routine (Cfg.make ~name:"big" [ b0 ]) in
  let g, a, b = graph_vs_reference fl in
  (match g.Remat.Interference.edges with
  | Remat.Interference.Csr _ -> ()
  | Remat.Interference.Dense _ -> Alcotest.fail "expected a Csr edge set");
  if not (String.equal a b) then
    Alcotest.fail "graph differs from the oracle beyond dense_node_limit";
  let built, oracle = pair_counts fl in
  if built <> oracle then
    Alcotest.failf "pair counters beyond dense_node_limit: build reports %s, the oracle %s"
      (show_counts built) (show_counts oracle)

(* --- spill A/B: arena splicing vs structured rewrite ------------------ *)

(* The same renumbered routine and spill sets through both insertion
   paths, two rounds deep so the second round spills around the first
   round's temporaries and continues its slot and register numbering.
   Everything the allocator carries from round to round must agree: the
   routine, the stats, the slot counter, the supply watermark, and the
   tag and infinite-cost tables. *)
let reg_list tbl =
  Reg.Tbl.fold (fun r () acc -> Reg.to_string r :: acc) tbl []
  |> List.sort String.compare

let spill_ab_check ~what ~mode ~rng cfg =
  let cfg = Cfg.split_critical_edges cfg in
  let rn = Remat.Renumber.run_flat mode (Flat.of_routine cfg) in
  let s_cfg = Flat.to_routine rn.Remat.Renumber.fl in
  let f_fl = ref rn.Remat.Renumber.fl in
  let s_tags = Reg.Tbl.copy rn.Remat.Renumber.f_tags in
  let f_tags = Reg.Tbl.copy rn.Remat.Renumber.f_tags in
  let s_inf = Reg.Tbl.create 16 and f_inf = Reg.Tbl.create 16 in
  let s_slots = ref 0 and f_slots = ref 0 in
  for round = 1 to 2 do
    let what = Printf.sprintf "%s, round %d" what round in
    let spilled =
      Reg.Set.elements (Cfg.all_regs s_cfg)
      |> List.filter (fun r ->
             (not (Reg.Tbl.mem s_inf r)) && Random.State.int rng 4 = 0)
    in
    let s_st =
      Remat.Spill_code.insert s_cfg ~tags:s_tags ~infinite:s_inf ~spilled
        ~slot_counter:s_slots
    in
    let f_st, fl =
      Remat.Spill_code.insert_flat !f_fl ~tags:f_tags ~infinite:f_inf ~spilled
        ~slot_counter:f_slots
    in
    f_fl := fl;
    let f_cfg = Flat.to_routine fl in
    Alcotest.(check string)
      (what ^ ": routine")
      (Iloc.Printer.routine_to_string s_cfg)
      (Iloc.Printer.routine_to_string f_cfg);
    let stats (st : Remat.Spill_code.stats) =
      Printf.sprintf "remat=%d memory=%d slots=%d" st.Remat.Spill_code.remat_lrs
        st.Remat.Spill_code.memory_lrs st.Remat.Spill_code.new_slots
    in
    Alcotest.(check string) (what ^ ": stats") (stats s_st) (stats f_st);
    Alcotest.(check int) (what ^ ": slot counter") !s_slots !f_slots;
    Alcotest.(check int)
      (what ^ ": supply watermark")
      (Reg.Supply.last s_cfg.Cfg.supply)
      fl.Flat.supply_last;
    Alcotest.(check (list string))
      (what ^ ": tags") (tag_list s_tags) (tag_list f_tags);
    Alcotest.(check (list string))
      (what ^ ": infinite") (reg_list s_inf) (reg_list f_inf)
  done

let spill_ab_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat spill insertion ≡ structured (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun mode ->
          spill_ab_check
            ~what:
              (Printf.sprintf "seed %d, %s" seed (Remat.Mode.to_string mode))
            ~mode ~rng (Cfg.copy cfg))
        Remat.Mode.[ Briggs_remat; Chaitin_remat; No_remat ];
      true)

let qcheck_cases =
  List.map
    (fun c -> QCheck_alcotest.to_alcotest (roundtrip_prop c))
    gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (liveness_flat_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (renumber_ab_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (graph_reference_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (pair_counts_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (csr_merge_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (spill_ab_prop c))
      gen_configs

let () =
  Alcotest.run "flat"
    [
      ( "directed",
        [
          Alcotest.test_case "every opcode round-trips" `Quick
            test_every_opcode;
          Alcotest.test_case "empty blocks round-trip" `Quick test_empty_blocks;
          Alcotest.test_case "special float immediates" `Quick
            test_float_immediates;
          Alcotest.test_case "supply watermark preserved" `Quick
            test_supply_preserved;
          Alcotest.test_case "CSR edges match Cfg edges" `Quick
            test_edges_match;
          Alcotest.test_case "splice identity" `Quick test_splice_identity;
          Alcotest.test_case "of_routine rejects SSA" `Quick test_rejects_ssa;
          Alcotest.test_case "graph beyond dense_node_limit ≡ Reference.Graph"
            `Quick test_graph_over_limit;
        ] );
      ( "instr-equal",
        [
          Alcotest.test_case "directed equal/hash pairs" `Quick
            test_instr_equal;
          Alcotest.test_case "hash spreads immediates" `Quick
            test_hash_spreads;
        ] );
      ("roundtrip", qcheck_cases);
    ]
