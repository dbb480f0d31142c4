(* Tests for the compiler analyses: DFS numbering, dominators, natural
   loops, liveness, cross-block dependence edges against a
   reaching-definitions model, and codependent sets; the first four and
   the last against the list definitions they replaced (Cfg_model). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let blk label insns term = { Ir.Block.label; insns = Array.of_list insns; term }

(* 0 -> 1 -> 2 -> 1 (loop), 2 -> 3 (exit) *)
let loop_func () =
  {
    Ir.Func.name = "loop";
    blocks =
      [|
        blk 0 [ Ir.Insn.Li (12, 0) ] (Ir.Block.Jump 1);
        blk 1 [ Ir.Insn.Bin (Ir.Insn.Lt, 3, 12, Ir.Insn.Imm 10) ]
          (Ir.Block.Br (3, 2, 3));
        blk 2 [ Ir.Insn.Bin (Ir.Insn.Add, 12, 12, Ir.Insn.Imm 1) ]
          (Ir.Block.Jump 1);
        blk 3 [ Ir.Insn.Mov (Ir.Reg.rv, 12) ] Ir.Block.Ret;
      |];
  }

let diamond_func () =
  {
    Ir.Func.name = "diamond";
    blocks =
      [|
        blk 0 [ Ir.Insn.Li (12, 1) ] (Ir.Block.Br (12, 1, 2));
        blk 1 [ Ir.Insn.Li (13, 2) ] (Ir.Block.Jump 3);
        blk 2 [ Ir.Insn.Li (13, 3) ] (Ir.Block.Jump 3);
        blk 3 [ Ir.Insn.Mov (14, 13) ] Ir.Block.Ret;
      |];
  }

(* --- dfs ----------------------------------------------------------------- *)

let test_dfs_numbers () =
  let f = diamond_func () in
  let d = Analysis.Dfs.compute f in
  checki "entry pre 0" 0 d.Analysis.Dfs.pre.(0);
  checkb "entry highest post" true
    (Array.for_all (fun p -> p <= d.Analysis.Dfs.post.(0)) d.Analysis.Dfs.post);
  checki "rpo starts at entry" 0 d.Analysis.Dfs.rpo.(0);
  checki "rpo covers all" 4 (Array.length d.Analysis.Dfs.rpo)

let test_dfs_retreating () =
  let f = loop_func () in
  let d = Analysis.Dfs.compute f in
  checkb "back edge retreating" true
    (Analysis.Dfs.is_retreating d ~src:2 ~dst:1);
  checkb "forward edge not" false (Analysis.Dfs.is_retreating d ~src:0 ~dst:1);
  checkb "exit edge not" false (Analysis.Dfs.is_retreating d ~src:1 ~dst:3)

(* --- dominators ---------------------------------------------------------- *)

let test_dom_diamond () =
  let f = diamond_func () in
  let dom = Gen.dom f in
  checki "idom of 1" 0 dom.Analysis.Dom.idom.(1);
  checki "idom of 2" 0 dom.Analysis.Dom.idom.(2);
  checki "join dominated by entry only" 0 dom.Analysis.Dom.idom.(3);
  checkb "entry dominates all" true
    (List.for_all (fun l -> Analysis.Dom.dominates dom 0 l) [ 0; 1; 2; 3 ]);
  checkb "1 does not dominate 3" false (Analysis.Dom.dominates dom 1 3);
  checkb "reflexive" true (Analysis.Dom.dominates dom 2 2)

let test_dom_loop () =
  let f = loop_func () in
  let dom = Gen.dom f in
  checki "header idom" 0 dom.Analysis.Dom.idom.(1);
  checki "body idom" 1 dom.Analysis.Dom.idom.(2);
  checkb "header dominates latch" true (Analysis.Dom.dominates dom 1 2)

let prop_entry_dominates_all =
  QCheck.Test.make ~name:"entry dominates every reachable block" ~count:40
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun name ->
          let f = Ir.Prog.find prog name in
          let dom = Gen.dom f in
          let d = Analysis.Dfs.compute f in
          Array.for_all
            (fun l ->
              d.Analysis.Dfs.pre.(l) = -1
              || Analysis.Dom.dominates dom Ir.Func.entry l)
            (Array.init (Ir.Func.num_blocks f) (fun i -> i)))
        (Ir.Prog.func_names prog))

let prop_idom_dominates =
  QCheck.Test.make ~name:"immediate dominator dominates its node" ~count:40
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun name ->
          let f = Ir.Prog.find prog name in
          let dom = Gen.dom f in
          Array.for_all (fun l ->
              let id = dom.Analysis.Dom.idom.(l) in
              id = -1 || Analysis.Dom.dominates dom id l)
            (Array.init (Ir.Func.num_blocks f) (fun i -> i)))
        (Ir.Prog.func_names prog))

(* --- loops --------------------------------------------------------------- *)

let test_loops_simple () =
  let f = loop_func () in
  let loops = Gen.loops f in
  checki "one loop" 1 (List.length loops.Analysis.Loops.loops);
  let lo = List.hd loops.Analysis.Loops.loops in
  checki "header" 1 lo.Analysis.Loops.header;
  checkb "blocks 1,2" true (lo.Analysis.Loops.blocks = [ 1; 2 ]);
  checkb "latch 2" true (lo.Analysis.Loops.latches = [ 2 ]);
  checkb "is_header" true loops.Analysis.Loops.is_header.(1);
  checkb "is_latch" true loops.Analysis.Loops.is_latch.(2);
  checkb "entry edge crosses" true
    (Analysis.Loops.crosses_boundary loops ~src:0 ~dst:1);
  checkb "exit edge crosses" true
    (Analysis.Loops.crosses_boundary loops ~src:1 ~dst:3);
  checkb "internal edge does not cross" false
    (Analysis.Loops.crosses_boundary loops ~src:1 ~dst:2)

let test_loops_nested () =
  (* builder: two nested counted loops *)
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b (Ir.Reg.tmp 0) ~from:(Ir.Insn.Imm 0)
        ~below:(Ir.Insn.Imm 3) ~step:1 (fun b ->
          Ir.Builder.for_ b (Ir.Reg.tmp 1) ~from:(Ir.Insn.Imm 0)
            ~below:(Ir.Insn.Imm 3) ~step:1 (fun b ->
              Ir.Builder.nop b));
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let f = Ir.Prog.find prog "main" in
  let loops = Gen.loops f in
  checki "two loops" 2 (List.length loops.Analysis.Loops.loops);
  let sizes =
    List.sort compare
      (List.map
         (fun lo -> List.length lo.Analysis.Loops.blocks)
         loops.Analysis.Loops.loops)
  in
  checkb "inner strictly nested" true (List.nth sizes 0 < List.nth sizes 1)

(* --- liveness ------------------------------------------------------------ *)

let test_liveness_diamond () =
  let f = diamond_func () in
  let lv = Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty f in
  (* 13 is written on both branches and read at the join *)
  checkb "13 live into join" true
    (Analysis.Dataflow.Regset.mem 13 lv.Analysis.Dataflow.live_in.(3));
  checkb "13 live out of branch" true
    (Analysis.Dataflow.Regset.mem 13 lv.Analysis.Dataflow.live_out.(1));
  checkb "13 not live into entry" false
    (Analysis.Dataflow.Regset.mem 13 lv.Analysis.Dataflow.live_in.(0));
  checkb "12 used by entry branch" true
    (Analysis.Dataflow.Regset.mem 12 lv.Analysis.Dataflow.live_out.(0) = false)

let test_liveness_exit_live_default () =
  let f = diamond_func () in
  let lv = Analysis.Dataflow.liveness f in
  (* with the conservative default, everything not redefined flows back *)
  checkb "14 live out of join? no (nothing after)" true
    (Analysis.Dataflow.Regset.mem 20 lv.Analysis.Dataflow.live_in.(0))

let test_liveness_loop () =
  let f = loop_func () in
  let lv = Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty f in
  checkb "12 live around loop" true
    (Analysis.Dataflow.Regset.mem 12 lv.Analysis.Dataflow.live_in.(1));
  checkb "12 live out of latch" true
    (Analysis.Dataflow.Regset.mem 12 lv.Analysis.Dataflow.live_out.(2))

let test_liveness_call_uses () =
  (* a block ending in a call: with default call_uses only the argument
     registers are live into it; with call_uses = all, everything written
     upstream stays live *)
  let f =
    {
      Ir.Func.name = "c";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (20, 1) ] (Ir.Block.Call ("g", 1));
          blk 1 [] Ir.Block.Ret;
        |];
    }
  in
  let narrow =
    Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty f
  in
  checkb "r20 dead with default call set" false
    (Analysis.Dataflow.Regset.mem 20 narrow.Analysis.Dataflow.live_out.(0));
  let wide =
    Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty
      ~call_uses:
        (Analysis.Dataflow.Regset.of_list
           (List.init Ir.Reg.count (fun i -> i)))
      f
  in
  (* with call_uses = all, the call itself consumes r20: live INTO block 0's
     call, i.e. nothing upstream may consider it dead *)
  checkb "r20 consumed by the call when call_uses=all" true
    (Analysis.Dataflow.Regset.mem 20
       (Analysis.Dataflow.Regset.union
          wide.Analysis.Dataflow.live_in.(0)
          wide.Analysis.Dataflow.live_out.(0))
    |> fun mem -> mem || not
      (Analysis.Dataflow.Regset.mem 20 wide.Analysis.Dataflow.live_in.(0))
      (* the def in block 0 kills it from live_in; the USE is internal *));
  (* the observable difference: a register set before the call block *)
  let f2 =
    {
      Ir.Func.name = "c2";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (20, 1) ] (Ir.Block.Jump 1);
          blk 1 [] (Ir.Block.Call ("g", 2));
          blk 2 [] Ir.Block.Ret;
        |];
    }
  in
  let narrow2 =
    Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty f2
  in
  let wide2 =
    Analysis.Dataflow.liveness ~exit_live:Analysis.Dataflow.Regset.empty
      ~call_uses:
        (Analysis.Dataflow.Regset.of_list
           (List.init Ir.Reg.count (fun i -> i)))
      f2
  in
  checkb "dead across call by default" false
    (Analysis.Dataflow.Regset.mem 20 narrow2.Analysis.Dataflow.live_out.(0));
  checkb "live across call when callees may read anything" true
    (Analysis.Dataflow.Regset.mem 20 wide2.Analysis.Dataflow.live_out.(0))

(* --- cross-block dependence edges ---------------------------------------- *)

let test_def_use_diamond () =
  let f = diamond_func () in
  let edges = Analysis.Dataflow.block_dep_edges f in
  (* defs of 13 in blocks 1 and 2 reach the use in block 3 *)
  checkb "1 -> 3 on r13" true (List.mem (1, 3, 13) edges);
  checkb "2 -> 3 on r13" true (List.mem (2, 3, 13) edges);
  checkb "0 -> anything on r13 absent" true
    (not (List.exists (fun (u, _, r) -> u = 0 && r = 13) edges))

let test_def_use_loop_carried () =
  let f = loop_func () in
  let edges = Analysis.Dataflow.block_dep_edges f in
  (* the increment in block 2 feeds the test in block 1 around the back
     edge, and the init in block 0 feeds both *)
  checkb "2 -> 1 loop-carried" true (List.mem (2, 1, 12) edges);
  checkb "0 -> 1 init" true (List.mem (0, 1, 12) edges)

(* The model: reaching definitions over tree sets of definition sites,
   every (def, use) pair listed, and the distinct cross-block (producer
   block, consumer block, register) triples read off the pairs — how the
   edges were computed before the forward search. *)
module Reaching = struct
  module Iset = Set.Make (Int)

  type site = { blk : Ir.Block.label; idx : int; reg : Ir.Reg.t }

  let term_defs = function
    | Ir.Block.Call (_, _) -> [ Ir.Reg.rv ]
    | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
    | Ir.Block.Halt -> []

  (* every (def, use) pair; a use at [idx = Array.length insns] is the
     terminator's *)
  let def_use f =
    let n = Ir.Func.num_blocks f in
    let sites = ref [] in
    for l = 0 to n - 1 do
      let b = Ir.Func.block f l in
      Array.iteri
        (fun idx insn ->
          List.iter
            (fun reg -> sites := { blk = l; idx; reg } :: !sites)
            (Ir.Insn.defs insn))
        b.Ir.Block.insns;
      List.iter
        (fun reg ->
          sites :=
            { blk = l; idx = Array.length b.Ir.Block.insns; reg } :: !sites)
        (term_defs b.Ir.Block.term)
    done;
    let sites = Array.of_list (List.rev !sites) in
    let site_ids_by_reg = Array.make Ir.Reg.count [] in
    Array.iteri
      (fun id s -> site_ids_by_reg.(s.reg) <- id :: site_ids_by_reg.(s.reg))
      sites;
    (* gen = last def of each register in the block; kill = every def in
       another block of a register the block writes *)
    let gen = Array.make n Iset.empty in
    let kill = Array.make n Iset.empty in
    let last_def_in_block = Hashtbl.create 64 in
    Array.iteri
      (fun id s -> Hashtbl.replace last_def_in_block (s.blk, s.reg) id)
      sites;
    Array.iteri
      (fun id s ->
        if Hashtbl.find last_def_in_block (s.blk, s.reg) = id then
          gen.(s.blk) <- Iset.add id gen.(s.blk);
        kill.(s.blk) <-
          List.fold_left
            (fun acc other ->
              if sites.(other).blk <> s.blk then Iset.add other acc else acc)
            kill.(s.blk) site_ids_by_reg.(s.reg))
      sites;
    let in_ = Array.make n Iset.empty in
    let out = Array.make n Iset.empty in
    let preds = Ir.Func.predecessors f in
    let changed = ref true in
    while !changed do
      changed := false;
      for l = 0 to n - 1 do
        let inn =
          List.fold_left (fun acc p -> Iset.union acc out.(p)) Iset.empty
            preds.(l)
        in
        let o = Iset.union gen.(l) (Iset.diff inn kill.(l)) in
        if not (Iset.equal inn in_.(l) && Iset.equal o out.(l)) then begin
          in_.(l) <- inn;
          out.(l) <- o;
          changed := true
        end
      done
    done;
    (* walk each block, resolving uses against local defs or the in-set *)
    let pairs = ref [] in
    for l = 0 to n - 1 do
      let b = Ir.Func.block f l in
      let local = Hashtbl.create 16 in
      let resolve_use idx reg =
        if reg <> Ir.Reg.zero then begin
          let use_site = { blk = l; idx; reg } in
          match Hashtbl.find_opt local reg with
          | Some def_site -> pairs := (def_site, use_site) :: !pairs
          | None ->
            Iset.iter
              (fun id ->
                if sites.(id).reg = reg then
                  pairs := (sites.(id), use_site) :: !pairs)
              in_.(l)
        end
      in
      Array.iteri
        (fun idx insn ->
          List.iter (resolve_use idx) (Ir.Insn.uses insn);
          List.iter
            (fun reg -> Hashtbl.replace local reg { blk = l; idx; reg })
            (Ir.Insn.defs insn))
        b.Ir.Block.insns;
      List.iter
        (resolve_use (Array.length b.Ir.Block.insns))
        (Analysis.Dataflow.term_uses b.Ir.Block.term)
    done;
    !pairs

  let block_dep_edges f =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (d, u) ->
        if d.blk <> u.blk then Hashtbl.replace tbl (d.blk, u.blk, d.reg) ())
      (def_use f);
    List.sort compare
      (Hashtbl.fold (fun (a, b, r) () acc -> (a, b, r) :: acc) tbl [])
end

(* The first function of [prog]'s compilations whose edges differ from the
   model's, with both edge lists. *)
let model_mismatch prog =
  List.find_map
    (fun (p : Ir.Prog.t) ->
      List.find_map
        (fun (name, f) ->
          let got = Analysis.Dataflow.block_dep_edges f
          and want = Reaching.block_dep_edges f in
          if got = want then None else Some (name, got, want))
        (Ir.Prog.Smap.bindings p.Ir.Prog.funcs))
    (Cfg_model.compiled prog)

let print_edges l =
  String.concat " "
    (List.map (fun (u, v, r) -> Printf.sprintf "%d>%d:r%d" u v r) l)

let prop_dep_edges_model =
  QCheck.Test.make ~name:"matches a reaching-definitions model" ~count:400
    Gen.arbitrary_program (fun prog ->
      match model_mismatch prog with
      | None -> true
      | Some (name, got, want) ->
        QCheck.Test.fail_reportf "%s: got %s, the model %s" name
          (print_edges got) (print_edges want))

let test_dep_edges_corpus () =
  List.iter
    (fun (_, name, build) ->
      match model_mismatch (build ()) with
      | None -> ()
      | Some (fname, got, want) ->
        Alcotest.failf "%s, function %s: got %s, the model %s" name fname
          (print_edges got) (print_edges want))
    (Corpus.programs ())

(* --- reachability / codependent sets ------------------------------------- *)

(* the blocks a codependent set's bytes mark *)
let codependent f ~producer ~consumer =
  let m =
    Analysis.Reach.codependent f (Ir.Func.pred_table f) ~producer ~consumer
  in
  List.filter
    (fun l -> Bytes.get m l <> '\000')
    (List.init (Bytes.length m) Fun.id)

let test_codependent_diamond () =
  let f = diamond_func () in
  checkb "0 to 3 covers all" true
    (codependent f ~producer:0 ~consumer:3 = [ 0; 1; 2; 3 ]);
  checkb "1 to 3" true (codependent f ~producer:1 ~consumer:3 = [ 1; 3 ]);
  checkb "unreachable empty" true (codependent f ~producer:3 ~consumer:0 = [])

let test_reach_directions () =
  let f = loop_func () in
  checkb "loop to exit" true
    (codependent f ~producer:1 ~consumer:3 = [ 1; 2; 3 ]);
  checkb "loop does not reach entry" true
    (codependent f ~producer:1 ~consumer:0 = []);
  checkb "entry to latch" true
    (codependent f ~producer:0 ~consumer:2 = [ 0; 1; 2 ]);
  checkb "a block to itself" true
    (codependent f ~producer:3 ~consumer:3 = [ 3 ])

(* --- the CFG analyses against the list definitions they replaced ---------- *)

let show l = String.concat "," (List.map string_of_int l)
let show_arr a = "[" ^ show (Array.to_list a) ^ "]"

(* Codependent sets are compared on every (producer, consumer) pair of a
   function up to this many blocks, and on the pairs [block_dep_edges]
   names (the ones selection asks for) beyond it. *)
let all_pairs = 64

(* The first difference between the analyses of [f] and Cfg_model's, as a
   message: the DFS numbering, the dominators, the loop forest record by
   record, and the codependent bytes. *)
let analyses_mismatch (f : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  let dfs = Analysis.Dfs.compute f and mdfs = Cfg_model.Dfs.compute f in
  let preds = Ir.Func.pred_table f in
  let dom = Analysis.Dom.compute dfs preds in
  let loops = Analysis.Loops.compute f dom preds in
  let mloops = Cfg_model.Loops.compute f in
  let differ what show got want =
    if got = want then None
    else
      Some (Printf.sprintf "%s %s, the model %s" what (show got) (show want))
  in
  let arr what got want = differ what show_arr got want in
  let bools what got want =
    arr what (Array.map Bool.to_int got) (Array.map Bool.to_int want)
  in
  let show_loops l =
    String.concat " "
      (List.map
         (fun (h, blocks, latches, size) ->
           Printf.sprintf "(header %d blocks [%s] latches [%s] size %d)" h
             (show blocks) (show latches) size)
         l)
  in
  let pairs =
    if n <= all_pairs then
      List.concat_map
        (fun p -> List.init n (fun c -> (p, c)))
        (List.init n Fun.id)
    else
      List.sort_uniq compare
        (List.map
           (fun (p, c, _) -> (p, c))
           (Analysis.Dataflow.block_dep_edges f))
  in
  let codep (producer, consumer) =
    differ
      (Printf.sprintf "codependent %d>%d" producer consumer)
      (fun l -> "[" ^ show l ^ "]")
      (codependent f ~producer ~consumer)
      (Cfg_model.codependent_set f ~producer ~consumer)
  in
  List.find_map Lazy.force
    [
      lazy (arr "pre" dfs.Analysis.Dfs.pre mdfs.Cfg_model.Dfs.pre);
      lazy (arr "post" dfs.Analysis.Dfs.post mdfs.Cfg_model.Dfs.post);
      lazy (arr "rpo" dfs.Analysis.Dfs.rpo mdfs.Cfg_model.Dfs.rpo);
      lazy (arr "idom" dom.Analysis.Dom.idom (Cfg_model.Dom.compute f));
      lazy
        (differ "loops" show_loops
           (List.map
              (fun Analysis.Loops.{ header; blocks; latches; static_size } ->
                (header, blocks, latches, static_size))
              loops.Analysis.Loops.loops)
           (List.map
              (fun Cfg_model.Loops.{ header; blocks; latches; static_size } ->
                (header, blocks, latches, static_size))
              mloops.Cfg_model.Loops.loops));
      lazy
        (bools "is_header" loops.Analysis.Loops.is_header
           mloops.Cfg_model.Loops.is_header);
      lazy
        (bools "is_latch" loops.Analysis.Loops.is_latch
           mloops.Cfg_model.Loops.is_latch);
      lazy
        (arr "innermost" loops.Analysis.Loops.innermost
           mloops.Cfg_model.Loops.innermost);
      lazy (List.find_map codep pairs);
    ]

let test_cfg_model_corpus () =
  List.iter
    (fun (name, f) ->
      match analyses_mismatch f with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" name msg)
    (Lazy.force Cfg_model.corpus_funcs)

let prop_cfg_model_random =
  QCheck.Test.make ~name:"random CFGs match the list model" ~count:1000
    Cfg_model.arbitrary_func (fun f ->
      match analyses_mismatch f with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_cfg_model_builder =
  QCheck.Test.make ~name:"builder functions match the list model" ~count:100
    Gen.arbitrary_program (fun prog ->
      Ir.Prog.Smap.for_all
        (fun name f ->
          match analyses_mismatch f with
          | None -> true
          | Some msg -> QCheck.Test.fail_reportf "%s: %s" name msg)
        prog.Ir.Prog.funcs)

let () =
  Alcotest.run "analysis"
    [
      ( "dfs",
        [
          Alcotest.test_case "numbers" `Quick test_dfs_numbers;
          Alcotest.test_case "retreating edges" `Quick test_dfs_retreating;
        ] );
      ( "dom",
        [
          Alcotest.test_case "diamond" `Quick test_dom_diamond;
          Alcotest.test_case "loop" `Quick test_dom_loop;
          QCheck_alcotest.to_alcotest prop_entry_dominates_all;
          QCheck_alcotest.to_alcotest prop_idom_dominates;
        ] );
      ( "loops",
        [
          Alcotest.test_case "simple" `Quick test_loops_simple;
          Alcotest.test_case "nested" `Quick test_loops_nested;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "diamond" `Quick test_liveness_diamond;
          Alcotest.test_case "default exit-live" `Quick
            test_liveness_exit_live_default;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
          Alcotest.test_case "call uses" `Quick test_liveness_call_uses;
        ] );
      ( "defuse",
        [
          Alcotest.test_case "diamond" `Quick test_def_use_diamond;
          Alcotest.test_case "loop carried" `Quick test_def_use_loop_carried;
          QCheck_alcotest.to_alcotest prop_dep_edges_model;
          Alcotest.test_case "corpus matches the model" `Quick
            test_dep_edges_corpus;
        ] );
      ( "reach",
        [
          Alcotest.test_case "codependent" `Quick test_codependent_diamond;
          Alcotest.test_case "directions" `Quick test_reach_directions;
        ] );
      ( "model",
        [
          Alcotest.test_case "corpus and shapes" `Quick test_cfg_model_corpus;
          QCheck_alcotest.to_alcotest prop_cfg_model_random;
          QCheck_alcotest.to_alcotest prop_cfg_model_builder;
        ] );
    ]
