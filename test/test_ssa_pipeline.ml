(* Tests for the decoupled SSA allocation pipeline (lib/core/ssa_alloc):
   per-fuzz-config QCheck properties over generated routines, and the
   chordality invariant the greedy dominator-preorder coloring must meet
   — never more colors than MaxLive, never more than the machine's k. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let ssa_modes = [ Remat.Mode.Ssa_remat; Remat.Mode.Ssa_no_remat ]

let ssa_configs =
  List.concat_map
    (fun optimize ->
      List.concat_map
        (fun machine ->
          List.map
            (fun mode -> { Fuzz.Oracle.optimize; mode; machine })
            ssa_modes)
        [ Remat.Machine.standard; Fuzz.Oracle.tight ])
    [ false; true ]

(* Direct access to the pipeline's result record — the chordality bound
   is not observable through [Allocator.allocate]. *)
let ssa_run ~mode ~(machine : Remat.Machine.t) cfg =
  Remat.Ssa_alloc.run ~mode ~machine ~max_rounds:64
    ~stats:(Remat.Stats.create ())
    cfg

(* The full per-config obligation, one generated routine at a time:
   allocation succeeds, output is a valid φ-free routine within k, the
   static verifier accepts it (or stays agnostic), the simulator agrees
   with the source, and the coloring met the chordal bound. *)
let config_property (c : Fuzz.Oracle.config) cfg =
  let cfg = if c.optimize then Opt.Pipeline.run cfg else cfg in
  let machine = c.machine in
  let res =
    Remat.Allocator.allocate ~mode:c.mode ~machine ~verify:false cfg
  in
  let out = res.Remat.Allocator.cfg in
  (* Valid, φ-free, within k. *)
  (match Iloc.Validate.routine out with
  | Ok () -> ()
  | Error es ->
      QCheck.Test.fail_reportf "invalid output: %s"
        (String.concat "; " (List.map Iloc.Validate.error_to_string es)));
  if Cfg.in_ssa out then QCheck.Test.fail_report "output still in SSA form";
  Reg.Set.iter
    (fun r ->
      let k =
        if Reg.is_float r then machine.Remat.Machine.k_float
        else machine.Remat.Machine.k_int
      in
      if Reg.id r >= k then
        QCheck.Test.fail_reportf "register %s beyond k=%d" (Reg.to_string r) k)
    (Cfg.all_regs out);
  (* Static verification: sound or agnostic, never a rejection. *)
  (match
     Verify.Check.routine ~input:cfg ~output:out
       ~k_int:machine.Remat.Machine.k_int
       ~k_float:machine.Remat.Machine.k_float
   with
  | Ok _ -> ()
  | Error es when List.for_all Verify.Error.is_unsupported es -> ()
  | Error es ->
      QCheck.Test.fail_reportf "static rejection: %s"
        (String.concat "; " (List.map Verify.Error.to_string es)));
  (* Dynamic equivalence. *)
  if
    not
      (Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run out))
  then QCheck.Test.fail_report "simulated outcome differs from the source";
  (* Chordality: the greedy coloring never needs more than MaxLive
     colors per class, and post-spilling MaxLive fits the machine. *)
  let r = ssa_run ~mode:c.mode ~machine cfg in
  if r.Remat.Ssa_alloc.max_colors_int > r.Remat.Ssa_alloc.max_live_int then
    QCheck.Test.fail_reportf "int colors %d exceed MaxLive %d"
      r.Remat.Ssa_alloc.max_colors_int r.Remat.Ssa_alloc.max_live_int;
  if r.Remat.Ssa_alloc.max_colors_float > r.Remat.Ssa_alloc.max_live_float
  then
    QCheck.Test.fail_reportf "float colors %d exceed MaxLive %d"
      r.Remat.Ssa_alloc.max_colors_float r.Remat.Ssa_alloc.max_live_float;
  if r.Remat.Ssa_alloc.max_live_int > machine.Remat.Machine.k_int then
    QCheck.Test.fail_reportf "int MaxLive %d exceeds k=%d"
      r.Remat.Ssa_alloc.max_live_int machine.Remat.Machine.k_int;
  if r.Remat.Ssa_alloc.max_live_float > machine.Remat.Machine.k_float then
    QCheck.Test.fail_reportf "float MaxLive %d exceeds k=%d"
      r.Remat.Ssa_alloc.max_live_float machine.Remat.Machine.k_float;
  true

let per_config_props =
  List.map
    (fun (c : Fuzz.Oracle.config) ->
      QCheck.Test.make ~count:40
        ~name:
          (Printf.sprintf "SSA pipeline obligations hold under %s"
             (Fuzz.Oracle.config_name c))
        Testutil.Gen_prog.arbitrary_cfg (config_property c))
    ssa_configs

(* --- A/B oracles for the pressure substrate --- *)

module Liveness = Dataflow.Liveness
module Dense = Reference.Ssa_dense

let ab_machines =
  [
    Remat.Machine.standard;
    Fuzz.Oracle.tight;
    Remat.Machine.make ~name:"6+4" ~k_int:6 ~k_float:4;
  ]

(* The SSA form [Ssa_alloc.run] spills: critical edges split, pruned
   SSA, remat tags of the [ssa] mode; plus the loop weights its costs
   use. *)
let ssa_form cfg =
  let cfg = Cfg.split_critical_edges cfg in
  let loops = Dataflow.Loops.compute cfg (Dataflow.Dominance.compute cfg) in
  let ssa = Ssa.Construct.run cfg in
  let vals = Ssa.Values.analyze ssa in
  let tags = Reg.Tbl.create 64 in
  Array.iteri
    (fun i t ->
      match t with
      | Remat.Tag.Inst _ -> Reg.Tbl.replace tags (Ssa.Values.reg vals i) t
      | Remat.Tag.Top | Remat.Tag.Bottom -> ())
    (Remat.Remat_analysis.run ssa vals);
  (ssa, loops, tags)

let regs_to_string rs = String.concat " " (List.map Reg.to_string rs)

(* Per-block rows and MaxLive of the path-exploration liveness equal
   the dense worklist's. *)
let rows_match ~what cfg =
  let cap = Liveness.Ssa.capacity cfg in
  let rows = Liveness.Ssa.compute ~cap cfg in
  let dense = Dense.compute_ssa cfg in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    let row name got want =
      if not (List.equal Reg.equal got want) then
        QCheck.Test.fail_reportf "%s: %s of block %d is [%s], dense [%s]" what
          name b (regs_to_string got) (regs_to_string want)
    in
    row "live_in" rows.Liveness.Ssa.live_in.(b) (Liveness.live_in dense b);
    row "live_out" rows.Liveness.Ssa.live_out.(b) (Liveness.live_out dense b)
  done;
  let mi, mf = Liveness.Ssa.max_live ~cap cfg rows in
  let di, df = Dense.max_live_ssa cfg dense in
  if mi <> di || mf <> df then
    QCheck.Test.fail_reportf "%s: MaxLive differs from the dense rows'" what;
  (cap, rows, dense)

(* One round of the pipeline's spill decision, checked against the
   dense oracle: rows, MaxLive, and [(chosen, stuck)] under the real
   spill costs and under coarse ones that tie often.  Returns the
   chosen set. *)
let round_matches ~what ~(machine : Remat.Machine.t) ~loops ~tags ~infinite
    cfg =
  let cap, rows, dense = rows_match ~what cfg in
  let k = Remat.Machine.k_for machine in
  let spillable r = not (Reg.Tbl.mem infinite r) in
  let tag_of r =
    Option.value (Reg.Tbl.find_opt tags r) ~default:Remat.Tag.Bottom
  in
  let real = Remat.Ssa_alloc.cost_table ~cap cfg loops tag_of in
  let coarse = Array.init cap (fun p -> float (p * 7919 mod 3)) in
  let pick cost =
    let got = Remat.Ssa_alloc.select cfg rows ~cap ~k ~cost ~spillable in
    let want =
      Dense.select cfg dense ~k ~cost:(fun r -> cost.(Reg.hash r)) ~spillable
    in
    if not (Reg.Set.equal (fst got) (fst want) && snd got = snd want) then
      QCheck.Test.fail_reportf
        "%s: selection {%s} stuck %s, dense {%s} stuck %s" what
        (regs_to_string (Reg.Set.elements (fst got)))
        (Option.value (snd got) ~default:"-")
        (regs_to_string (Reg.Set.elements (fst want)))
        (Option.value (snd want) ~default:"-");
    fst got
  in
  ignore (pick coarse);
  pick real

(* Round 1 on the fresh SSA form, then round 2 after one
   [rewrite_spills] of round 1's choice. *)
let substrate_property machine cfg =
  let ssa, loops, tags = ssa_form cfg in
  let infinite = Reg.Tbl.create 16 in
  let chosen =
    round_matches ~what:"round 1" ~machine ~loops ~tags ~infinite ssa
  in
  Remat.Ssa_alloc.rewrite_spills ssa ~chosen ~tags ~infinite
    ~slots:(Reg.Tbl.create 16) ~slot_counter:(ref 0);
  ignore (round_matches ~what:"round 2" ~machine ~loops ~tags ~infinite ssa);
  true

let high_pressure_cfg =
  QCheck.make
    (fun st ->
      Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure
        (QCheck.Gen.int_bound 0x3FFFFFFF st))
    ~print:Iloc.Printer.routine_to_string

let substrate_props =
  List.concat_map
    (fun (m : Remat.Machine.t) ->
      [
        QCheck.Test.make ~count:60
          ~name:
            (Printf.sprintf
               "SSA rows, MaxLive and selection = dense oracle (default, %s)"
               m.Remat.Machine.name)
          Testutil.Gen_prog.arbitrary_cfg (substrate_property m);
        QCheck.Test.make ~count:25
          ~name:
            (Printf.sprintf
               "SSA rows, MaxLive and selection = dense oracle (high \
                pressure, %s)"
               m.Remat.Machine.name)
          high_pressure_cfg (substrate_property m);
      ])
    ab_machines

(* An unreachable block with an upward-exposed use of [r5] and a
   φ-argument edge into the reachable join.  The worklist never visits
   it: its live_in stays empty, its live_out holds only its φ seeds, and
   it receives nothing from the join's live_in.  The join's second φ is
   dead, so only its entry point reaches the join's MaxLive of 3. *)
let unreachable_routine () =
  let r n = Reg.make n Reg.Int in
  let entry =
    Iloc.Block.make ~id:0 ~label:"entry"
      ~body:[ Iloc.Instr.ldi (r 1) 1; Iloc.Instr.ldi (r 5) 5 ]
      ~term:(Iloc.Instr.jmp "join") ()
  in
  let dead =
    Iloc.Block.make ~id:1 ~label:"dead"
      ~body:[ Iloc.Instr.add (r 2) (r 5) (r 5) ]
      ~term:(Iloc.Instr.jmp "join") ()
  in
  let join =
    Iloc.Block.make ~id:2 ~label:"join"
      ~phis:
        [
          Iloc.Phi.make (r 3) [ (0, r 1); (1, r 2) ];
          Iloc.Phi.make (r 8) [ (0, r 5); (1, r 2) ];
        ]
      ~body:[ Iloc.Instr.add (r 4) (r 3) (r 5); Iloc.Instr.print_ (r 4) ]
      ~term:(Iloc.Instr.ret (Some (r 4))) ()
  in
  Cfg.make ~name:"unreachable_phi_pred" [ entry; dead; join ]

(* --- directed pipeline checks --- *)

let directed =
  [
    tc "fixtures allocate, verify and agree under both SSA modes" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun mode ->
                let res =
                  Remat.Allocator.allocate ~mode ~verify:true cfg
                in
                let out = res.Remat.Allocator.cfg in
                if
                  not
                    (Sim.Interp.outcome_equal (Sim.Interp.run cfg)
                       (Sim.Interp.run out))
                then
                  Alcotest.failf "%s under %s: outcome differs" name
                    (Remat.Mode.to_string mode))
              ssa_modes)
          (Testutil.all_fixed ()));
    tc "rounds converge and report spills on a pressured fixture" (fun () ->
        let cfg = Testutil.high_pressure () in
        let r =
          ssa_run ~mode:Remat.Mode.Ssa_remat ~machine:Fuzz.Oracle.tight cfg
        in
        check Alcotest.bool "at least one spill round" true
          (r.Remat.Ssa_alloc.rounds > 1);
        check Alcotest.bool "something spilled" true
          (r.Remat.Ssa_alloc.spilled_memory + r.Remat.Ssa_alloc.spilled_remat
          > 0);
        check Alcotest.bool "MaxLive within k" true
          (r.Remat.Ssa_alloc.max_live_int <= 6
          && r.Remat.Ssa_alloc.max_live_float <= 6));
    tc "ssa-no-remat never rematerializes" (fun () ->
        let cfg = Testutil.high_pressure () in
        let r =
          ssa_run ~mode:Remat.Mode.Ssa_no_remat ~machine:Fuzz.Oracle.tight cfg
        in
        check Alcotest.int "remat spills" 0 r.Remat.Ssa_alloc.spilled_remat);
    tc "unreachable blocks keep the worklist's rows" (fun () ->
        let cfg = unreachable_routine () in
        let cap, rows, _ = rows_match ~what:"unreachable" cfg in
        let r n = Reg.make n Reg.Int in
        let row = Alcotest.(list string) in
        let names rs = List.map Reg.to_string rs in
        check row "dead live_in" [] (names rows.Liveness.Ssa.live_in.(1));
        check row "dead live_out" (names [ r 2 ])
          (names rows.Liveness.Ssa.live_out.(1));
        check row "entry live_out" (names [ r 1; r 5 ])
          (names rows.Liveness.Ssa.live_out.(0));
        let mi, _ = Liveness.Ssa.max_live ~cap cfg rows in
        check Alcotest.int "join MaxLive" 3 mi.(2));
    tc "a dead φ destination gives its color back at block entry"
      (fun () ->
        (* Reduced from a generated routine: after optimization and SSA
           construction a φ destination is dead at its block's entry.
           Held for the whole block, its color pushed a later definition
           one color past MaxLive. *)
        let cfg =
          Opt.Pipeline.run
            (Iloc.Parser.routine
               {|
       routine fuzz_902528702
       data wf[8] = f{ 0x1p-1 0x1.8p+0 0x1.4p+1 0x1.cp+1 0x1.2p+2 0x1.6p+2 0x1.ap+2 0x1.ep+2 }
       data const ro[8] = { -4 7 18 29 40 51 62 73 }
       entry:
         r3 <- ldi 0
         r4 <- ldi 0
         r6 <- ldi 0
         r7 <- ldi 0
         r1 <- ldi 0
         jmp head1
       head1:
         r2 <- ldi 0
         cbr r2 body2 exit3
       body2:
         r4 <- cmp_ne r6 r4
         cbr r4 then4 else5
       then4:
         r4 <- cmp_lt r3 r6
         f9 <- itof r2
         jmp join6
       else5:
         f9 <- lfi 0x0p+0
         r7 <- copy r7
         r1 <- add r3 r3
         jmp join6
       join6:
         r2 <- laddr @wf
         storei f9 -> r2 0
         jmp head1
       exit3:
         r2 <- addi r1 0
         r5 <- sub r7 r3
         jmp head10
       head10:
         r24 <- ldi 0
         r1 <- cmp_gt r4 r24
         cbr r1 body11 head16
       body11:
         r1 <- ldi 0
         cbr r1 head10 head10
       head16:
         r4 <- ldi 0
         r1 <- cmp_gt r2 r4
         cbr r1 body17 exit18
       body17:
         r3 <- ldro @ro 0
         r7 <- mul r6 r5
         jmp join21
       join21:
         r2 <- subi r2 0
         jmp head16
       exit18:
         r1 <- add r2 r4
         r1 <- mul r1 r7
         print r3
         ret r1
|})
        in
        let r =
          ssa_run ~mode:Remat.Mode.Ssa_remat ~machine:Fuzz.Oracle.tight cfg
        in
        check Alcotest.bool "int colors within MaxLive" true
          (r.Remat.Ssa_alloc.max_colors_int <= r.Remat.Ssa_alloc.max_live_int);
        check Alcotest.bool "float colors within MaxLive" true
          (r.Remat.Ssa_alloc.max_colors_float
          <= r.Remat.Ssa_alloc.max_live_float));
    tc "incremental allocation declines SSA modes" (fun () ->
        let cfg = Testutil.counted_loop () in
        let snap =
          Remat.Allocator.snapshot ~mode:Remat.Mode.Ssa_remat cfg
        in
        check Alcotest.bool "no incremental path" true
          (Remat.Allocator.allocate_incremental snap cfg = None));
  ]

let () =
  Alcotest.run "ssa-pipeline"
    [
      ("directed", directed);
      ("properties", List.map QCheck_alcotest.to_alcotest per_config_props);
      ("substrate", List.map QCheck_alcotest.to_alcotest substrate_props);
    ]
