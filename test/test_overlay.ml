(* Tests for the overlay multicast library. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Multicast = Tivaware_overlay.Multicast
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:200.

let oracle m a b = Matrix.get m a b

let build_oracle ?config seed n =
  let m = euclidean_matrix seed n in
  let order = Rng.permutation (Rng.create (seed + 1)) n in
  let e = Engine.of_matrix m in
  (e, Multicast.build ?config ~predict:(oracle m) e ~join_order:order)

(* Walk to the root; returns depth or None on a cycle/corruption. *)
let depth_of t node =
  let rec ascend cur steps =
    if steps < 0 then None
    else if cur = Multicast.root t then Some 0
    else begin
      match Multicast.parent t cur with
      | None -> None
      | Some p -> Option.map (fun d -> d + 1) (ascend p (steps - 1))
    end
  in
  ascend node 10_000

let check_tree_invariants t n =
  let members = Multicast.members t in
  (* Every member reaches the root without cycles. *)
  List.iter
    (fun node ->
      match depth_of t node with
      | Some _ -> ()
      | None -> Alcotest.failf "node %d cannot reach the root" node)
    members;
  (* Degree counters match actual children. *)
  let actual = Array.make n 0 in
  List.iter
    (fun node ->
      match Multicast.parent t node with
      | Some p -> actual.(p) <- actual.(p) + 1
      | None -> ())
    members;
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "degree counter of %d" node)
        actual.(node) (Multicast.children_count t node))
    members

let test_build_everyone_joins () =
  let _, t = build_oracle 1 60 in
  Alcotest.(check int) "all nodes join a complete matrix" 60
    (List.length (Multicast.members t))

let test_build_invariants () =
  let _, t = build_oracle 2 80 in
  check_tree_invariants t 80

let test_degree_cap_respected () =
  let config = { Multicast.default_config with Multicast.max_degree = 2 } in
  let m = euclidean_matrix 3 50 in
  let order = Rng.permutation (Rng.create 4) 50 in
  let t =
    Multicast.build ~config ~predict:(oracle m) (Engine.of_matrix m)
      ~join_order:order
  in
  List.iter
    (fun node ->
      Alcotest.(check bool) "degree cap" true (Multicast.children_count t node <= 2))
    (Multicast.members t);
  check_tree_invariants t 50

let test_root_properties () =
  let m = euclidean_matrix 5 20 in
  let order = Rng.permutation (Rng.create 6) 20 in
  let t =
    Multicast.build ~predict:(oracle m) (Engine.of_matrix m) ~join_order:order
  in
  Alcotest.(check int) "root is first joiner" order.(0) (Multicast.root t);
  Alcotest.(check bool) "root has no parent" true
    (Multicast.parent t (Multicast.root t) = None)

let test_unjoinable_nodes_left_out () =
  (* A node with no measured edge to anyone cannot join. *)
  let m = Matrix.create 4 in
  Matrix.set m 0 1 10.;
  Matrix.set m 0 2 10.;
  Matrix.set m 1 2 10.;
  (* node 3 fully unmeasured *)
  let t =
    Multicast.build ~predict:(oracle m) (Engine.of_matrix m)
      ~join_order:[| 0; 1; 2; 3 |]
  in
  Alcotest.(check int) "three members" 3 (List.length (Multicast.members t));
  Alcotest.(check bool) "node 3 out" true (Multicast.parent t 3 = None)

let test_oracle_attaches_nearest () =
  (* With unconstrained degree, each joiner picks its measured-nearest
     earlier member. *)
  let config = { Multicast.default_config with Multicast.max_degree = 1000 } in
  let m = euclidean_matrix 7 30 in
  let order = Rng.permutation (Rng.create 8) 30 in
  let t =
    Multicast.build ~config ~predict:(oracle m) (Engine.of_matrix m)
      ~join_order:order
  in
  Array.iteri
    (fun idx node ->
      if idx > 0 then begin
        match Multicast.parent t node with
        | None -> Alcotest.fail "should have joined"
        | Some p ->
          let pd = Matrix.get m node p in
          for k = 0 to idx - 1 do
            Alcotest.(check bool) "parent is the nearest earlier member" true
              (Matrix.get m node order.(k) >= pd -. 1e-9)
          done
      end)
    order

let test_evaluate_fields () =
  let e, t = build_oracle 9 40 in
  let metrics = Multicast.evaluate t e in
  Alcotest.(check int) "members" 40 metrics.Multicast.members;
  Alcotest.(check bool) "stretch >= 1" true (metrics.Multicast.median_stretch >= 1. -. 1e-9);
  Alcotest.(check bool) "p90 >= median" true
    (metrics.Multicast.p90_stretch >= metrics.Multicast.median_stretch);
  Alcotest.(check bool) "fanout within cap" true
    (metrics.Multicast.max_fanout <= Multicast.default_config.Multicast.max_degree)

let test_refresh_keeps_invariants () =
  let data = Datasets.generate ~size:100 ~seed:10 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let order = Rng.permutation (Rng.create 11) 100 in
  let e = Engine.of_matrix m in
  let t = Multicast.build ~predict:(oracle m) e ~join_order:order in
  let rng = Rng.create 12 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh ~predict:(oracle m) t rng e)
  done;
  check_tree_invariants t 100

let test_refresh_improves_bad_tree () =
  (* Build the tree with an adversarial predictor (farthest member),
     then refresh with the oracle: stretch must improve. *)
  let data = Datasets.generate ~size:120 ~seed:13 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let order = Rng.permutation (Rng.create 14) 120 in
  let anti a b =
    let d = Matrix.get m a b in
    if Float.is_nan d then nan else -.d
  in
  let e = Engine.of_matrix m in
  let t = Multicast.build ~predict:anti e ~join_order:order in
  let before = (Multicast.evaluate t e).Multicast.median_stretch in
  let rng = Rng.create 15 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh ~predict:(oracle m) t rng e)
  done;
  let after = (Multicast.evaluate t e).Multicast.median_stretch in
  Alcotest.(check bool)
    (Printf.sprintf "stretch improved (%.2f -> %.2f)" before after)
    true (after < before);
  check_tree_invariants t 120

let test_empty_join_order () =
  Alcotest.check_raises "empty join order names the field"
    (Invalid_argument "Multicast.build: join_order must be non-empty")
    (fun () ->
      ignore
        (Multicast.build (Engine.of_matrix (euclidean_matrix 1 5)) ~join_order:[||]))

let test_engine_build_refresh_equivalence () =
  (* Build and refresh probing through a default-config measurement
     engine must be bit-for-bit identical to the oracle-predictor path:
     same parents, same metrics, after the same refresh schedule. *)
  let data = Datasets.generate ~size:100 ~seed:16 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let order = Rng.permutation (Rng.create 17) 100 in
  let truth = Engine.of_matrix m in
  let a = Multicast.build ~predict:(oracle m) truth ~join_order:order in
  let engine = Engine.of_matrix m in
  let b = Multicast.build engine ~join_order:order in
  let same_trees x y =
    Alcotest.(check (list int)) "same members" (Multicast.members x)
      (Multicast.members y);
    List.iter
      (fun node ->
        Alcotest.(check (option int))
          (Printf.sprintf "same parent of %d" node)
          (Multicast.parent x node) (Multicast.parent y node))
      (Multicast.members x);
    let mx = Multicast.evaluate x truth and my = Multicast.evaluate y truth in
    Alcotest.(check (float 0.)) "same median stretch"
      mx.Multicast.median_stretch my.Multicast.median_stretch;
    Alcotest.(check (float 0.)) "same p90 stretch" mx.Multicast.p90_stretch
      my.Multicast.p90_stretch
  in
  same_trees a b;
  (* Identical rng seeds drive identical refresh decisions. *)
  let ra = Rng.create 18 and rb = Rng.create 18 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh ~predict:(oracle m) a ra truth);
    ignore (Multicast.refresh b rb engine)
  done;
  same_trees a b;
  let st = Engine.stats engine in
  Alcotest.(check bool) "engine probed" true
    (st.Tivaware_measure.Probe_stats.requests > 0);
  Alcotest.(check (float 0.)) "clock untouched" 0. (Engine.now engine)

let prop_build_invariants_random =
  qcheck "random worlds keep tree invariants"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let n = 30 + (seed mod 20) in
      let m = euclidean_matrix seed n in
      let order = Rng.permutation (Rng.create (seed + 1)) n in
      let t =
    Multicast.build ~predict:(oracle m) (Engine.of_matrix m) ~join_order:order
  in
      let ok = ref true in
      List.iter
        (fun node -> if depth_of t node = None then ok := false)
        (Multicast.members t);
      !ok)

let () =
  Alcotest.run "overlay"
    [
      ( "multicast",
        [
          Alcotest.test_case "everyone joins" `Quick test_build_everyone_joins;
          Alcotest.test_case "build invariants" `Quick test_build_invariants;
          Alcotest.test_case "degree cap" `Quick test_degree_cap_respected;
          Alcotest.test_case "root properties" `Quick test_root_properties;
          Alcotest.test_case "empty join order" `Quick test_empty_join_order;
          Alcotest.test_case "unjoinable nodes" `Quick test_unjoinable_nodes_left_out;
          Alcotest.test_case "oracle attaches nearest" `Quick test_oracle_attaches_nearest;
          Alcotest.test_case "evaluate fields" `Quick test_evaluate_fields;
          Alcotest.test_case "refresh keeps invariants" `Quick test_refresh_keeps_invariants;
          Alcotest.test_case "refresh improves bad tree" `Quick test_refresh_improves_bad_tree;
          Alcotest.test_case "engine = oracle build/refresh" `Quick
            test_engine_build_refresh_equivalence;
          prop_build_invariants_random;
        ] );
    ]
