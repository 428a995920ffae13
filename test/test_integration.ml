(* End-to-end integration tests: exercise the full pipeline the way the
   benchmark harness and examples do, asserting the paper's qualitative
   claims hold on a freshly generated world. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Clustering = Tivaware_delay_space.Clustering
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Euclidean = Tivaware_topology.Euclidean
module Severity = Tivaware_tiv.Severity
module Alert = Tivaware_tiv.Alert
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

(* One shared world for the whole integration suite. *)
let world = lazy (Datasets.generate ~size:160 ~seed:1234 Datasets.Ds2)
let matrix () = (Lazy.force world).Generator.matrix
let severity = lazy (Severity.all (matrix ()))

let vivaldi = lazy (Selectors.embed_vivaldi ~rounds:200 (Rng.create 55) (matrix ()))

let test_world_has_clusters_and_tivs () =
  let m = matrix () in
  let a = Clustering.cluster m in
  Alcotest.(check int) "three major clusters" 3 (Array.length a.Clustering.clusters);
  let sev = Lazy.force severity in
  let max_sev = Array.fold_left Float.max 0. (Matrix.delays sev) in
  Alcotest.(check bool) "severe TIVs exist" true (max_sev > 0.5)

let test_embedding_shrinks_severe_edges () =
  (* Figure 19's core claim: severely violating edges get shrunk. *)
  let m = matrix () in
  let sev = Lazy.force severity in
  let system = Lazy.force vivaldi in
  let shrunk = ref [] and healthy = ref [] in
  Matrix.iter_edges m (fun i j _ ->
      let r =
        Alert.probed_ratio ~label:"test" ~engine:(System.engine system)
          ~predicted:(System.predictor system) i j
      in
      if not (Float.is_nan r) then begin
        let s = Matrix.get sev i j in
        if r < 0.5 then shrunk := s :: !shrunk else healthy := s :: !healthy
      end);
  let mean l = Stats.mean (Array.of_list l) in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk edges more severe (%.3f vs %.3f)" (mean !shrunk)
       (mean !healthy))
    true
    (!shrunk <> [] && mean !shrunk > 2. *. mean !healthy)

let test_alert_quality_end_to_end () =
  let m = matrix () in
  let sev = Lazy.force severity in
  let system = Lazy.force vivaldi in
  let ratios =
    Alert.ratio_matrix ~measured:m ~predicted:(fun i j -> System.predicted system i j)
  in
  match Eval.evaluate ~ratios ~severity:sev ~worst_fraction:0.05 ~thresholds:[ 0.4 ] with
  | [ p ] ->
    Alcotest.(check bool)
      (Printf.sprintf "tight-threshold accuracy high (%.2f over %d alerts)"
         p.Eval.accuracy p.Eval.alerts)
      true
      (p.Eval.alerts = 0 || p.Eval.accuracy > 0.5)
  | _ -> Alcotest.fail "one point expected"

let test_dynamic_neighbor_vivaldi_improves_selection () =
  let m = matrix () in
  let system = System.create (Rng.create 56) m in
  System.run system ~rounds:100;
  let penalties () =
    (Experiment.run_predictor (Rng.create 57) m ~runs:3 ~candidate_count:30
       ~predict:(System.predicted system) ())
      .Experiment.penalties
  in
  let before = Stats.median (penalties ()) in
  Dynamic_neighbors.run system
    { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 6 };
  let after = Stats.median (penalties ()) in
  Alcotest.(check bool)
    (Printf.sprintf "median penalty improved (%.1f%% -> %.1f%%)" before after)
    true (after < before)

let test_meridian_worse_on_tiv_than_euclidean () =
  let m = matrix () in
  let n = Matrix.size m in
  let eucl = Euclidean.uniform_box (Rng.create 58) ~n ~dim:5 ~side_ms:250. in
  let run m =
    let cfg = Ring.unlimited_config n in
    let r =
      Experiment.run_meridian (Rng.create 59) m ~runs:3 ~meridian_count:(n / 5)
        ~termination:Query.Any_improvement
        ~build:(Selectors.meridian_build m cfg) ()
    in
    let p = r.Experiment.base.Experiment.penalties in
    let perfect = Array.fold_left (fun acc x -> if x <= 1e-9 then acc + 1 else acc) 0 p in
    float_of_int perfect /. float_of_int (Array.length p)
  in
  let frac_eucl = run eucl and frac_tiv = run m in
  Alcotest.(check bool)
    (Printf.sprintf "idealized Meridian: euclidean %.3f vs tiv %.3f" frac_eucl frac_tiv)
    true
    (frac_eucl > frac_tiv)

let test_tiv_aware_meridian_not_worse () =
  let m = matrix () in
  let cfg = Ring.default_config in
  let system = Lazy.force vivaldi in
  let predicted i j = System.predicted system i j in
  let run ?fallback build =
    let r =
      Experiment.run_meridian (Rng.create 60) m ~runs:3 ~meridian_count:80
        ?fallback ~build ()
    in
    ( Stats.mean r.Experiment.base.Experiment.penalties,
      r.Experiment.probes )
  in
  let mean_orig, probes_orig = run (Selectors.meridian_build m cfg) in
  let engine = Engine.of_matrix m in
  let mean_aware, probes_aware =
    run
      ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ())
      (Selectors.meridian_build_tiv_aware engine cfg ~predicted)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean penalty not degraded (%.1f vs %.1f)" mean_orig mean_aware)
    true
    (mean_aware <= mean_orig *. 1.2 +. 5.);
  (* Dual placement + restarts must cost some extra probes, but only a
     modest fraction (the paper reports ~5-6%). *)
  let overhead =
    float_of_int (probes_aware - probes_orig) /. float_of_int probes_orig
  in
  Alcotest.(check bool)
    (Printf.sprintf "probe overhead modest (%.1f%%)" (100. *. overhead))
    true
    (overhead > -0.05 && overhead < 0.5)

let test_full_pipeline_determinism () =
  (* Same seeds, same penalties: the entire pipeline is reproducible. *)
  let run () =
    let data = Datasets.generate ~size:80 ~seed:99 Datasets.Ds2 in
    let m = data.Generator.matrix in
    let system = Selectors.embed_vivaldi ~rounds:50 (Rng.create 3) m in
    (Experiment.run_predictor (Rng.create 4) m ~runs:2 ~candidate_count:16
       ~predict:(System.predicted system) ())
      .Experiment.penalties
  in
  let a = run () and b = run () in
  Alcotest.(check (array (float 0.))) "identical penalty arrays" a b

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "world shape" `Quick test_world_has_clusters_and_tivs;
          Alcotest.test_case "embedding shrinks severe edges" `Quick
            test_embedding_shrinks_severe_edges;
          Alcotest.test_case "alert quality" `Quick test_alert_quality_end_to_end;
          Alcotest.test_case "dynamic neighbors improve selection" `Slow
            test_dynamic_neighbor_vivaldi_improves_selection;
          Alcotest.test_case "meridian euclidean vs tiv" `Slow
            test_meridian_worse_on_tiv_than_euclidean;
          Alcotest.test_case "tiv-aware meridian sane" `Slow test_tiv_aware_meridian_not_worse;
          Alcotest.test_case "determinism" `Quick test_full_pipeline_determinism;
        ] );
    ]
