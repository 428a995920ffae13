(* Robustness and failure-injection tests: degenerate inputs, heavy
   missing data, tiny worlds — the situations a library meets when fed
   real measurement files rather than friendly synthetic ones. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Clustering = Tivaware_delay_space.Clustering
module Shortest_path = Tivaware_delay_space.Shortest_path
module Repair = Tivaware_delay_space.Repair
module Properties = Tivaware_delay_space.Properties
module Euclidean = Tivaware_topology.Euclidean
module Severity = Tivaware_tiv.Severity
module Triangle = Tivaware_tiv.Triangle
module Alert = Tivaware_tiv.Alert
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

(* ------------------------------------------------------------------ *)
(* Tiny and degenerate matrices                                        *)

let test_two_node_world () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 10.;
  (* Severity on a 2-node world is trivially zero (no intermediates). *)
  Alcotest.(check (float 1e-9)) "no intermediates, no severity" 0.
    (Severity.edge_severity m 0 1);
  let census = Triangle.census m in
  Alcotest.(check int) "no triangles" 0 census.Triangle.triangles;
  (* Vivaldi still converges. *)
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let s = System.create ~config (Rng.create 1) m in
  System.run s ~rounds:300;
  Alcotest.(check bool) "embedding works" true
    (abs_float (System.predicted s 0 1 -. 10.) < 2.)

let test_empty_matrix_analyses () =
  let m = Matrix.create 5 in
  (* All entries missing. *)
  Alcotest.(check int) "no edges" 0 (Matrix.edge_count m);
  Alcotest.(check int) "no triangles" 0 (Triangle.census m).Triangle.triangles;
  Alcotest.(check bool) "properties raise on empty" true
    (match Properties.analyze m with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let sp = Shortest_path.all_pairs m in
  Alcotest.(check int) "shortest paths all missing" 0 (Matrix.edge_count sp)

let test_uniform_delay_world () =
  (* Every pair at exactly 50ms: a metric space, heavily degenerate. *)
  let m = Matrix.init 20 (fun _ _ -> 50.) in
  let census = Triangle.census m in
  Alcotest.(check int) "no violations" 0 census.Triangle.violating;
  let sev = Severity.all m in
  Matrix.iter_edges sev (fun _ _ s ->
      Alcotest.(check (float 1e-9)) "zero severity" 0. s);
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  (* Everything lands in one ball. *)
  Alcotest.(check int) "one real cluster" 20
    (Array.length a.Clustering.clusters.(0))

let test_disconnected_components () =
  (* Two islands with no cross measurements. *)
  let m = Matrix.create 8 in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Matrix.set m i j 10.
    done
  done;
  for i = 4 to 7 do
    for j = i + 1 to 7 do
      Matrix.set m i j 10.
    done
  done;
  let d = Shortest_path.single_source m 0 in
  Alcotest.(check bool) "cross-island unreachable" true (d.(5) = infinity);
  let filled = Repair.fill_missing_shortest_path m in
  Alcotest.(check bool) "cross-island stays missing after repair" true
    (Matrix.is_missing filled 0 5);
  (* Degree filter separates the components cleanly. *)
  let kept, mapping = Repair.drop_low_degree m ~min_degree:3 in
  Alcotest.(check int) "both islands survive" 8 (Matrix.size kept);
  Alcotest.(check int) "mapping complete" 8 (Array.length mapping)

(* ------------------------------------------------------------------ *)
(* Heavy missing data                                                  *)

let sparse_matrix seed n missing =
  let rng = Rng.create seed in
  Matrix.init n (fun _ _ ->
      if Rng.bernoulli rng missing then nan else Rng.uniform rng 5. 300.)

let test_sparse_severity_defined () =
  let m = sparse_matrix 2 40 0.6 in
  let sev = Severity.all m in
  Matrix.iter_edges sev (fun _ _ s ->
      Alcotest.(check bool) "severity finite and non-negative" true
        (Float.is_finite s && s >= 0.))

let test_sparse_vivaldi_survives () =
  let m = sparse_matrix 3 50 0.5 in
  let s = System.create (Rng.create 4) m in
  System.run s ~rounds:100;
  (* Coordinates must stay finite despite constant missing probes. *)
  for i = 0 to 49 do
    Array.iter
      (fun x -> Alcotest.(check bool) "finite coordinate" true (Float.is_finite x))
      (System.coord s i)
  done

let test_sparse_experiment_counts_failures () =
  let m = sparse_matrix 5 60 0.7 in
  let r =
    Experiment.run_predictor (Rng.create 6) m ~runs:2 ~candidate_count:10
      ~predict:(fun i j -> Matrix.get m i j) ()
  in
  Alcotest.(check int) "accounting adds up" 100
    (Array.length r.Experiment.penalties + r.Experiment.failures)

let test_sparse_meridian_queries () =
  let m = sparse_matrix 7 60 0.4 in
  let r =
    Experiment.run_meridian (Rng.create 8) m ~runs:2 ~meridian_count:30
      ~build:(Selectors.meridian_build m Ring.default_config) ()
  in
  Alcotest.(check bool) "some queries succeed" true (r.Experiment.queries > 0);
  Array.iter
    (fun p -> Alcotest.(check bool) "penalties finite" true (Float.is_finite p))
    r.Experiment.base.Experiment.penalties

(* ------------------------------------------------------------------ *)
(* Hostile delay values                                                *)

let test_extreme_delay_scales () =
  (* Microsecond-ish and multi-second delays in one matrix. *)
  let m = Matrix.create 4 in
  Matrix.set m 0 1 0.001;
  Matrix.set m 1 2 8000.;
  Matrix.set m 0 2 8000.;
  Matrix.set m 0 3 1.;
  Matrix.set m 1 3 1.;
  Matrix.set m 2 3 7999.5;
  let sev = Severity.all m in
  Matrix.iter_edges sev (fun _ _ s ->
      Alcotest.(check bool) "severity finite across scales" true (Float.is_finite s));
  let s = System.create ~config:{ System.default_config with System.neighbors_per_node = 3 }
      (Rng.create 9) m in
  System.run s ~rounds:200;
  for i = 0 to 3 do
    Array.iter
      (fun x -> Alcotest.(check bool) "coords finite" true (Float.is_finite x))
      (System.coord s i)
  done

let test_alert_zero_delay_edges () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 0.;
  Matrix.set m 0 2 10.;
  Matrix.set m 1 2 10.;
  let ratios = Alert.ratio_matrix ~measured:m ~predicted:(fun _ _ -> 5.) in
  (* The zero-delay edge is dropped rather than producing infinity. *)
  Alcotest.(check bool) "zero-delay edge excluded" true (Matrix.is_missing ratios 0 1);
  Alcotest.(check (float 1e-9)) "normal edge ratio" 0.5 (Matrix.get ratios 0 2)

let test_overlay_on_disconnected () =
  (* Meridian nodes that cannot measure the target: queries must fail
     gracefully — a nan answer and a counted failure — not loop. *)
  let m = Matrix.create 6 in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Matrix.set m i j 10.
    done
  done;
  (* nodes 4,5 isolated *)
  let overlay =
    Overlay.build (Rng.create 10) (Backend.dense m) Ring.default_config
      ~meridian_nodes:[| 0; 1; 2 |]
  in
  let engine = Engine.of_matrix m in
  let o = Query.closest overlay engine ~start:0 ~target:4 in
  Alcotest.(check bool) "unmeasurable target rejected" true
    (Float.is_nan o.Query.chosen_delay && o.Query.hops = 0);
  Alcotest.(check (float 0.)) "failure counted" 1.
    (Tivaware_obs.Counter.value
       (Tivaware_obs.Registry.counter (Engine.obs engine)
          "meridian.query_failures"))

(* ------------------------------------------------------------------ *)
(* Determinism under identical seeds, variation under different ones   *)

let test_seed_isolation () =
  let run seed =
    let data =
      Tivaware_topology.Datasets.generate ~size:60 ~seed
        Tivaware_topology.Datasets.Ds2
    in
    Stats.mean (Matrix.delays data.Tivaware_topology.Generator.matrix)
  in
  Alcotest.(check (float 0.)) "same seed" (run 1) (run 1);
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let () =
  Alcotest.run "robustness"
    [
      ( "degenerate",
        [
          Alcotest.test_case "two-node world" `Quick test_two_node_world;
          Alcotest.test_case "empty matrix" `Quick test_empty_matrix_analyses;
          Alcotest.test_case "uniform delays" `Quick test_uniform_delay_world;
          Alcotest.test_case "disconnected components" `Quick test_disconnected_components;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "severity defined" `Quick test_sparse_severity_defined;
          Alcotest.test_case "vivaldi survives" `Quick test_sparse_vivaldi_survives;
          Alcotest.test_case "experiment accounting" `Quick test_sparse_experiment_counts_failures;
          Alcotest.test_case "meridian queries" `Quick test_sparse_meridian_queries;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "extreme delay scales" `Quick test_extreme_delay_scales;
          Alcotest.test_case "zero-delay alert edges" `Quick test_alert_zero_delay_edges;
          Alcotest.test_case "disconnected overlay" `Quick test_overlay_on_disconnected;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seed isolation" `Quick test_seed_isolation ] );
    ]
