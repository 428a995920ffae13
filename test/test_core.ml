(* Tests for the neighbor-selection experiment framework. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Penalty = Tivaware_core.Penalty
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module System = Tivaware_vivaldi.System
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Penalty                                                             *)

let test_penalty_formula () =
  checkf "zero when optimal" 0. (Penalty.percentage ~selected:10. ~optimal:10.);
  checkf "100% when double" 100. (Penalty.percentage ~selected:20. ~optimal:10.);
  checkf "negative impossible in practice but formula holds" (-50.)
    (Penalty.percentage ~selected:5. ~optimal:10.)

let test_penalty_validation () =
  Alcotest.check_raises "non-positive optimal"
    (Invalid_argument "Penalty.percentage: optimal must be > 0") (fun () ->
      ignore (Penalty.percentage ~selected:1. ~optimal:0.))

let test_penalty_summary () =
  let s = Penalty.summarize [| 0.; 0.; 100. |] in
  Alcotest.(check bool) "mentions count" true (contains_substring s "n=3");
  Alcotest.(check string) "empty" "no samples" (Penalty.summarize [||])

(* ------------------------------------------------------------------ *)
(* Experiment: predictor                                               *)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:300.

let test_oracle_predictor_is_perfect () =
  let m = euclidean_matrix 1 60 in
  let r =
    Experiment.run_predictor (Rng.create 2) m ~runs:3 ~candidate_count:15
      ~predict:(fun i j -> Matrix.get m i j) ()
  in
  Alcotest.(check bool) "has samples" true (Array.length r.Experiment.penalties > 0);
  Array.iter (fun p -> checkf "zero penalty" 0. p) r.Experiment.penalties

let test_anti_oracle_is_poor () =
  let m = euclidean_matrix 3 60 in
  let r =
    Experiment.run_predictor (Rng.create 4) m ~runs:2 ~candidate_count:15
      ~predict:(fun i j -> -.Matrix.get m i j) ()
  in
  let mean = Tivaware_util.Stats.mean r.Experiment.penalties in
  Alcotest.(check bool) "anti-oracle penalized" true (mean > 50.)

let test_abstaining_predictor_fails () =
  let m = euclidean_matrix 5 30 in
  let r =
    Experiment.run_predictor (Rng.create 6) m ~runs:1 ~candidate_count:5
      ~predict:(fun _ _ -> nan) ()
  in
  Alcotest.(check int) "no penalties" 0 (Array.length r.Experiment.penalties);
  Alcotest.(check int) "all clients failed" 25 r.Experiment.failures

let test_experiment_sample_counts () =
  let m = euclidean_matrix 7 50 in
  let r =
    Experiment.run_predictor (Rng.create 8) m ~runs:4 ~candidate_count:10
      ~predict:(fun i j -> Matrix.get m i j) ()
  in
  Alcotest.(check int) "penalties+failures = runs * clients" (4 * 40)
    (Array.length r.Experiment.penalties + r.Experiment.failures)

let test_predictor_count_validation () =
  let m = euclidean_matrix 13 20 in
  Alcotest.check_raises "candidate_count >= size names the field"
    (Invalid_argument
       "Experiment.run_predictor: candidate_count must be in [1, 20) (got 20)")
    (fun () ->
      ignore
        (Experiment.run_predictor (Rng.create 14) m ~candidate_count:20
           ~predict:(Matrix.get m) ()))

(* ------------------------------------------------------------------ *)
(* Experiment: meridian                                                *)

let test_meridian_count_validation () =
  let m = euclidean_matrix 15 100 in
  Alcotest.check_raises "meridian_count >= size names the field"
    (Invalid_argument
       "Experiment.run_meridian: meridian_count must be in [2, 100) (got 150)")
    (fun () ->
      ignore
        (Experiment.run_meridian (Rng.create 16) m ~meridian_count:150
           ~build:(Selectors.meridian_build m Ring.default_config) ()))

let test_meridian_experiment_counts () =
  let m = euclidean_matrix 9 60 in
  let cfg = Ring.default_config in
  let r =
    Experiment.run_meridian (Rng.create 10) m ~runs:2 ~meridian_count:30
      ~build:(Selectors.meridian_build m cfg) ()
  in
  Alcotest.(check int) "queries = clients per run x runs (minus failures)" 60
    (r.Experiment.queries + r.Experiment.base.Experiment.failures);
  Alcotest.(check bool) "probes counted" true (r.Experiment.probes > 0);
  Alcotest.(check bool) "hops non-negative" true (r.Experiment.hops_mean >= 0.)

let test_meridian_metric_accuracy () =
  let m = euclidean_matrix 11 80 in
  let cfg = Ring.unlimited_config 80 in
  let r =
    Experiment.run_meridian (Rng.create 12) m ~runs:2 ~meridian_count:30
      ~termination:Tivaware_meridian.Query.Any_improvement
      ~build:(Selectors.meridian_build m cfg) ()
  in
  let perfect =
    Array.fold_left
      (fun acc p -> if p <= 1e-9 then acc + 1 else acc)
      0 r.Experiment.base.Experiment.penalties
  in
  let frac =
    float_of_int perfect /. float_of_int (Array.length r.Experiment.base.Experiment.penalties)
  in
  Alcotest.(check bool)
    (Printf.sprintf "nearly always optimal on metric space (%.2f)" frac)
    true (frac > 0.9)

(* ------------------------------------------------------------------ *)
(* Selectors                                                           *)

let test_banned_set_normalization () =
  let banned = Selectors.banned_set [| (3, 1); (2, 5) |] in
  Alcotest.(check bool) "normalized hit" true (banned (1, 3));
  Alcotest.(check bool) "reverse hit" true (banned (3, 1));
  Alcotest.(check bool) "other edge" false (banned (1, 2))

let test_filtered_vivaldi_avoids_banned () =
  let data = Datasets.generate ~size:60 ~seed:13 Datasets.Ds2 in
  let m = data.Generator.matrix in
  (* Ban all edges of node 0: its neighbor set must avoid... every edge,
     so ban only edges to nodes < 30 and check they are avoided. *)
  let banned (i, j) = (i = 0 && j < 30) || (j = 0 && i < 30) in
  let system = Selectors.embed_vivaldi_filtered ~rounds:5 ~banned (Rng.create 14) m in
  Array.iter
    (fun j -> Alcotest.(check bool) "banned edge not probed" true (j >= 30))
    (System.neighbors system 0)

let test_meridian_build_filtered () =
  let m = euclidean_matrix 15 40 in
  let cfg = Ring.default_config in
  let rng = Rng.create 16 in
  let nodes = Rng.sample_indices rng ~n:40 ~k:20 in
  let a = nodes.(0) and b = nodes.(1) in
  let banned (i, j) = (i = min a b) && (j = max a b) in
  let overlay = Selectors.meridian_build_filtered m cfg ~banned rng nodes in
  let members = Overlay.all_members overlay a in
  Alcotest.(check bool) "banned edge excluded from rings" false
    (List.exists (fun mem -> mem.Overlay.id = b) members)

let test_meridian_build_tiv_aware_dual_entries () =
  (* With a predictor that shrinks everything, dual placement should
     place some members in two rings, increasing total population. *)
  let data = Datasets.generate ~size:80 ~seed:17 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let cfg = Ring.default_config in
  let rng1 = Rng.create 18 and rng2 = Rng.create 18 in
  let nodes = Rng.sample_indices (Rng.create 19) ~n:80 ~k:40 in
  let plain = Overlay.build rng1 (Backend.dense m) cfg ~meridian_nodes:nodes in
  let aware =
    Selectors.meridian_build_tiv_aware (Engine.of_matrix m) cfg
      ~predicted:(fun i j ->
        let d = Matrix.get m i j in
        if Float.is_nan d then nan else d /. 4.)
      rng2 nodes
  in
  let total o =
    Array.fold_left
      (fun acc node -> acc + List.length (Overlay.all_entries o node))
      0 nodes
  in
  Alcotest.(check bool) "dual placement adds entries" true (total aware > total plain)

let () =
  Alcotest.run "core"
    [
      ( "penalty",
        [
          Alcotest.test_case "formula" `Quick test_penalty_formula;
          Alcotest.test_case "validation" `Quick test_penalty_validation;
          Alcotest.test_case "summary" `Quick test_penalty_summary;
        ] );
      ( "experiment_predictor",
        [
          Alcotest.test_case "oracle is perfect" `Quick test_oracle_predictor_is_perfect;
          Alcotest.test_case "anti-oracle is poor" `Quick test_anti_oracle_is_poor;
          Alcotest.test_case "abstaining predictor" `Quick test_abstaining_predictor_fails;
          Alcotest.test_case "sample counts" `Quick test_experiment_sample_counts;
          Alcotest.test_case "count validation" `Quick test_predictor_count_validation;
        ] );
      ( "experiment_meridian",
        [
          Alcotest.test_case "counts" `Quick test_meridian_experiment_counts;
          Alcotest.test_case "metric accuracy" `Quick test_meridian_metric_accuracy;
          Alcotest.test_case "count validation" `Quick test_meridian_count_validation;
        ] );
      ( "selectors",
        [
          Alcotest.test_case "banned set" `Quick test_banned_set_normalization;
          Alcotest.test_case "filtered vivaldi" `Quick test_filtered_vivaldi_avoids_banned;
          Alcotest.test_case "filtered meridian" `Quick test_meridian_build_filtered;
          Alcotest.test_case "tiv-aware dual entries" `Quick test_meridian_build_tiv_aware_dual_entries;
        ] );
    ]
