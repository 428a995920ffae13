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

let show_violation = function
  | Multicast.Children node -> Printf.sprintf "Children %d" node
  | Multicast.Degree node -> Printf.sprintf "Degree %d" node
  | Multicast.Unreachable node -> Printf.sprintf "Unreachable %d" node

let check_whole t =
  Alcotest.(check (option string)) "tree invariant" None
    (Option.map show_violation (Multicast.check t))

let test_build_everyone_joins () =
  let _, t = build_oracle 1 60 in
  Alcotest.(check int) "all nodes join a complete matrix" 60
    (List.length (Multicast.members t))

let test_build_invariants () =
  let _, t = build_oracle 2 80 in
  check_whole t

let test_degree_cap_respected () =
  let config = { Multicast.default_config with Multicast.max_degree = 2 } in
  let m = euclidean_matrix 3 50 in
  let order = Rng.permutation (Rng.create 4) 50 in
  let t =
    Multicast.build ~config ~predict:(oracle m) (Engine.of_matrix m)
      ~join_order:order
  in
  Alcotest.(check bool) "degree cap" true
    (List.for_all (fun p -> List.length (Multicast.children t p) <= 2) (Multicast.members t));
  check_whole t

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
  check_whole t

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
  check_whole t

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

(* Build, refresh and repair over generated worlds, degree caps and
   down sets (the root among them).  Build and refresh leave a whole
   tree; repair keeps the child index and degree caps, but can strand
   members: an orphan that leaves the tree takes the members already
   re-attached below it, and a rejoin may hang a node inside its own
   old subtree.  That reachability defect is the one violation allowed
   after a repair. *)
let prop_tree_invariant =
  let open QCheck2.Gen in
  let repair = triple (int_range 0 60) bool int (* percent down, root down, seed *) in
  qcheck ~count:100 "random worlds keep tree invariants"
    (tup5 (int_range 0 10_000) (int_range 20 60) (int_range 2 6) (int_range 0 3)
       (list_size (int_range 1 3) repair))
    (fun (seed, n, max_degree, refreshes, repairs) ->
      let m = euclidean_matrix seed n in
      let e = Engine.of_matrix m in
      let config = { Multicast.default_config with Multicast.max_degree } in
      let order = Rng.permutation (Rng.create (seed + 1)) n in
      let t = Multicast.build ~config ~predict:(oracle m) e ~join_order:order in
      let rng = Rng.create (seed + 2) in
      let nodes = List.init n Fun.id in
      let named p = List.filter (fun c -> Multicast.parent t c = Some p) nodes in
      let indexed () = List.for_all (fun p -> Multicast.children t p = named p) nodes in
      let whole () = Multicast.check t = None && indexed () in
      whole ()
      && List.for_all
           (fun _ -> ignore (Multicast.refresh ~predict:(oracle m) t rng e); whole ())
           (List.init refreshes Fun.id)
      && List.for_all
           (fun (pct, root_down, rseed) ->
             let r = Rng.create rseed in
             let down =
               Array.init n (fun node ->
                   if node = Multicast.root t then root_down else Rng.int r 100 < pct)
             in
             ignore
               (Multicast.repair ~predict:(oracle m) ~up:(fun i -> not down.(i)) t rng e);
             (match Multicast.check t with
             | None | Some (Multicast.Unreachable _) -> true
             | Some _ -> false)
             && indexed ())
           repairs)

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
          prop_tree_invariant;
        ] );
    ]
