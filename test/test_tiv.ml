(* Tests for the TIV analysis library: severity metric, triangle census,
   cluster analysis, proximity, alert mechanism. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Clustering = Tivaware_delay_space.Clustering
module Euclidean = Tivaware_topology.Euclidean
module Severity = Tivaware_tiv.Severity
module Triangle = Tivaware_tiv.Triangle
module Proximity = Tivaware_tiv.Proximity
module Cluster_analysis = Tivaware_tiv.Cluster_analysis
module Alert = Tivaware_tiv.Alert
module Eval = Tivaware_tiv.Eval

let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf_loose eps = Alcotest.check (Alcotest.float eps)

let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The paper's canonical TIV triangle: AB=5, BC=5, CA=100. *)
let paper_triangle () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  Matrix.set m 1 2 5.;
  Matrix.set m 2 0 100.;
  m

let random_matrix seed n =
  let rng = Rng.create seed in
  Matrix.init n (fun _ _ -> Rng.uniform rng 1. 300.)

(* ------------------------------------------------------------------ *)
(* Severity                                                            *)

let test_severity_paper_triangle () =
  let m = paper_triangle () in
  (* Edge CA: one violating intermediate (B), ratio 100/10 = 10, |S|=3. *)
  let ca = Severity.edge m 2 0 in
  checkf_loose 1e-9 "CA severity" (10. /. 3.) ca.Severity.severity;
  Alcotest.(check int) "CA violations" 1 ca.Severity.violations;
  checkf "CA max ratio" 10. ca.Severity.max_ratio;
  checkf "CA mean ratio" 10. ca.Severity.mean_ratio;
  (* Edge AB: 5 < 5 + 100, no violation. *)
  let ab = Severity.edge m 0 1 in
  checkf "AB severity" 0. ab.Severity.severity;
  Alcotest.(check int) "AB violations" 0 ab.Severity.violations;
  checkf "AB max ratio" 1. ab.Severity.max_ratio

let test_severity_argument_order () =
  let m = random_matrix 99 15 in
  for i = 0 to 14 do
    for j = i + 1 to 14 do
      checkf "edge (i,j) = edge (j,i)"
        (Severity.edge m i j).Severity.severity
        (Severity.edge m j i).Severity.severity
    done
  done

let test_triangulation_ratios () =
  let m = paper_triangle () in
  (* Edge CA has one intermediate (B): ratio 100 / (5 + 5) = 10. *)
  Alcotest.(check (array (float 1e-9))) "CA ratios" [| 10. |]
    (Severity.triangulation_ratios m 2 0);
  (* Edge AB: ratio 5 / (100 + 5). *)
  Alcotest.(check (array (float 1e-9))) "AB ratios" [| 5. /. 105. |]
    (Severity.triangulation_ratios m 0 1)

let test_severity_consistent_with_ratios () =
  (* severity = sum of violating ratios / n, recomputed from the raw
     distribution. *)
  let m = random_matrix 98 20 in
  Matrix.iter_edges m (fun i j _ ->
      let ratios = Severity.triangulation_ratios m i j in
      let recomputed =
        Array.fold_left (fun acc r -> if r > 1. then acc +. r else acc) 0. ratios
        /. 20.
      in
      checkf_loose 1e-9 "definition matches" (Severity.edge_severity m i j)
        recomputed)

let test_severity_missing_edge () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  Alcotest.check_raises "missing edge" (Invalid_argument "Severity.edge: missing edge")
    (fun () -> ignore (Severity.edge m 0 2))

let test_severity_all_matches_edge () =
  let m = random_matrix 11 20 in
  let all = Severity.all m in
  for i = 0 to 19 do
    for j = i + 1 to 19 do
      checkf_loose 1e-9 "all = edge" (Severity.edge m i j).Severity.severity
        (Matrix.get all i j)
    done
  done

let prop_severity_zero_on_metric =
  qcheck ~count:20 "metric spaces have zero severity everywhere"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let m = Euclidean.uniform_box (Rng.create seed) ~n:25 ~dim:3 ~side_ms:100. in
      let all = Severity.all m in
      let ok = ref true in
      Matrix.iter_edges all (fun _ _ s -> if s > 1e-9 then ok := false);
      !ok)

let prop_severity_nonnegative =
  qcheck ~count:20 "severity is non-negative and bounded by max ratio"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let m = random_matrix seed 15 in
      let ok = ref true in
      Matrix.iter_edges m (fun i j _ ->
          let e = Severity.edge m i j in
          if
            e.Severity.severity < 0.
            || e.Severity.severity > e.Severity.max_ratio
            || e.Severity.mean_ratio < 1. -. 1e-12
          then ok := false);
      !ok)

let test_severity_counts_consistency () =
  let m = random_matrix 13 25 in
  let sev, counts = Severity.all_with_counts m in
  (* Every counted edge has positive severity and vice versa. *)
  let counted = Hashtbl.create 64 in
  Array.iter (fun (i, j, c) ->
      Alcotest.(check bool) "count positive" true (c > 0);
      Hashtbl.replace counted (i, j) c) counts;
  Matrix.iter_edges sev (fun i j s ->
      Alcotest.(check bool) "severity>0 iff counted" (s > 0.)
        (Hashtbl.mem counted (i, j)))

let test_worst_edges () =
  let m = paper_triangle () in
  let sev = Severity.all m in
  let worst = Severity.worst_edges sev ~fraction:0.34 in
  Alcotest.(check int) "one edge kept" 1 (Array.length worst);
  Alcotest.(check (pair int int)) "CA is the worst" (0, 2) worst.(0);
  Alcotest.(check int) "fraction 0 keeps none" 0
    (Array.length (Severity.worst_edges sev ~fraction:0.));
  Alcotest.(check int) "fraction 1 keeps all" 3
    (Array.length (Severity.worst_edges sev ~fraction:1.))

let test_worst_edges_sorted () =
  let m = random_matrix 17 20 in
  let sev = Severity.all m in
  let worst = Severity.worst_edges sev ~fraction:0.5 in
  let values = Array.map (fun (i, j) -> Matrix.get sev i j) worst in
  for k = 0 to Array.length values - 2 do
    Alcotest.(check bool) "descending severity" true (values.(k) >= values.(k + 1))
  done

(* ------------------------------------------------------------------ *)
(* Triangle                                                            *)

let test_census_paper_triangle () =
  let c = Triangle.census (paper_triangle ()) in
  Alcotest.(check int) "one triangle" 1 c.Triangle.triangles;
  Alcotest.(check int) "violating" 1 c.Triangle.violating;
  checkf "fraction" 1. c.Triangle.fraction;
  checkf "worst ratio" 10. c.Triangle.worst_ratio

let test_census_metric () =
  let m = Euclidean.uniform_box (Rng.create 2) ~n:20 ~dim:3 ~side_ms:100. in
  let c = Triangle.census m in
  Alcotest.(check int) "no violations" 0 c.Triangle.violating;
  Alcotest.(check int) "all triangles counted" (20 * 19 * 18 / 6) c.Triangle.triangles

let test_census_missing_edges () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 1.;
  Matrix.set m 1 2 1.;
  (* only one complete triangle requires 3 edges; none are complete *)
  let c = Triangle.census m in
  Alcotest.(check int) "incomplete triangles skipped" 0 c.Triangle.triangles

(* ------------------------------------------------------------------ *)
(* Cluster analysis                                                    *)

(* Two tight blobs with one artificially inflated cross edge. *)
let two_cluster_matrix () =
  let rng = Rng.create 21 in
  let m =
    Euclidean.clustered rng ~n:40
      ~centers:[ (Array.make 3 0., 3.); ([| 150.; 0.; 0. |], 3.) ]
  in
  (* Inflate one cross-cluster edge: multiply by 4. *)
  let found = ref None in
  (try
     Matrix.iter_edges m (fun i j v ->
         if v > 100. then begin
           found := Some (i, j, v);
           raise Exit
         end)
   with Exit -> ());
  (match !found with
  | Some (i, j, v) -> Matrix.set m i j (4. *. v)
  | None -> Alcotest.fail "no cross edge found");
  m

let test_cluster_analysis_cross_worse () =
  let m = two_cluster_matrix () in
  let assignment = Clustering.cluster ~k:2 ~radius_ms:50. m in
  let severity, counts = Severity.all_with_counts m in
  let a = Cluster_analysis.analyze_with ~severity ~counts assignment in
  Alcotest.(check bool) "cross severity exceeds within" true
    (a.Cluster_analysis.cross_mean_severity >= a.Cluster_analysis.within_mean_severity);
  Alcotest.(check bool) "cross violations exceed within" true
    (a.Cluster_analysis.cross_mean_violations >= a.Cluster_analysis.within_mean_violations)

let test_cluster_analysis_blocks () =
  let m = two_cluster_matrix () in
  let assignment = Clustering.cluster ~k:2 ~radius_ms:50. m in
  let severity, counts = Severity.all_with_counts m in
  let a = Cluster_analysis.analyze_with ~severity ~counts assignment in
  let total_edges =
    List.fold_left (fun acc b -> acc + b.Cluster_analysis.edges) 0 a.Cluster_analysis.blocks
  in
  Alcotest.(check int) "blocks partition all edges" (Matrix.edge_count m) total_edges

let test_shade_matrix_shape () =
  let m = two_cluster_matrix () in
  let assignment = Clustering.cluster ~k:2 ~radius_ms:50. m in
  let severity = Severity.all m in
  let shade = Cluster_analysis.shade_matrix ~severity assignment ~cells:5 in
  Alcotest.(check int) "rows" 5 (Array.length shade);
  Array.iter (fun row -> Alcotest.(check int) "cols" 5 (Array.length row)) shade;
  (* Symmetric by construction. *)
  for r = 0 to 4 do
    for c = 0 to 4 do
      checkf "shade symmetric" shade.(r).(c) shade.(c).(r)
    done
  done

(* ------------------------------------------------------------------ *)
(* Proximity                                                           *)

let test_proximity_shapes () =
  let m = random_matrix 31 40 in
  let severity = Severity.all m in
  let r = Proximity.analyze (Rng.create 32) m ~severity ~samples:200 in
  Alcotest.(check bool) "nearest diffs non-empty" true
    (Array.length r.Proximity.nearest_pair_diffs > 0);
  Alcotest.(check bool) "random diffs non-empty" true
    (Array.length r.Proximity.random_pair_diffs > 0);
  Array.iter
    (fun d -> Alcotest.(check bool) "diffs non-negative" true (d >= 0.))
    r.Proximity.nearest_pair_diffs

let test_proximity_constant_severity () =
  (* On a metric space all severities are 0, so all diffs are 0. *)
  let m = Euclidean.uniform_box (Rng.create 33) ~n:30 ~dim:3 ~side_ms:100. in
  let severity = Severity.all m in
  let r = Proximity.analyze (Rng.create 34) m ~severity ~samples:100 in
  Array.iter (fun d -> checkf "zero diff" 0. d) r.Proximity.nearest_pair_diffs;
  checkf_loose 1e-9 "gap zero" 0. (Proximity.similarity_gap r)

(* ------------------------------------------------------------------ *)
(* Alert + Eval                                                        *)

let test_alert_ratio_matrix () =
  let m = paper_triangle () in
  (* Predictor that halves every delay. *)
  let ratios = Alert.ratio_matrix ~measured:m ~predicted:(fun i j -> Matrix.get m i j /. 2.) in
  checkf "ratio 0.5 everywhere" 0.5 (Matrix.get ratios 0 1);
  checkf "ratio 0.5 on CA" 0.5 (Matrix.get ratios 2 0)

let test_alert_thresholding () =
  let m = paper_triangle () in
  let predicted i j =
    (* Shrink only the CA edge. *)
    if (i, j) = (0, 2) || (i, j) = (2, 0) then 10. else Matrix.get m i j
  in
  let ratios = Alert.ratio_matrix ~measured:m ~predicted in
  let alerted = Alert.alerted ~ratios ~threshold:0.5 in
  Alcotest.(check int) "only CA alerted" 1 (Array.length alerted);
  Alcotest.(check (pair int int)) "CA" (0, 2) alerted.(0);
  Alcotest.(check bool) "CA shrunk" true
    (Alert.shrunk ~threshold:0.5 (Matrix.get ratios 0 2));
  Alcotest.(check bool) "AB not shrunk" false
    (Alert.shrunk ~threshold:0.5 (Matrix.get ratios 0 1));
  Alcotest.(check bool) "nan never shrunk" false (Alert.shrunk ~threshold:0.5 nan)

let test_alert_pairs () =
  let m = paper_triangle () in
  let severity = Severity.all m in
  let ratios = Alert.ratio_matrix ~measured:m ~predicted:(fun _ _ -> 1.) in
  let pairs = Alert.ratio_severity_pairs ~ratios ~severity in
  Alcotest.(check int) "one pair per edge" 3 (Array.length pairs)

let test_eval_perfect_alerts () =
  (* Ratios inversely proportional to severity rank: thresholding then
     recovers the worst set exactly, giving accuracy = recall = 1. *)
  let m = random_matrix 41 20 in
  let severity = Severity.all m in
  (* Build "ratios" = 1 / (1 + severity): strictly decreasing in severity. *)
  let ratios = Matrix.map (fun i j _ -> 1. /. (1. +. Matrix.get severity i j)) m in
  let worst = Severity.worst_edges severity ~fraction:0.1 in
  match Array.to_list worst with
  | [] -> Alcotest.fail "expected a worst set"
  | _ ->
    (* Pick the threshold exactly at the boundary ratio of the worst set. *)
    let boundary =
      Array.fold_left
        (fun acc (i, j) -> Float.max acc (Matrix.get ratios i j))
        0. worst
    in
    (match
       Eval.evaluate ~ratios ~severity ~worst_fraction:0.1 ~thresholds:[ boundary ]
     with
    | [ p ] ->
      Alcotest.(check bool) "high accuracy" true (p.Eval.accuracy >= 0.99);
      Alcotest.(check bool) "full recall" true (p.Eval.recall >= 0.99)
    | _ -> Alcotest.fail "one point expected")

let test_eval_monotone_recall () =
  let m = random_matrix 43 25 in
  let severity = Severity.all m in
  let ratios = Alert.ratio_matrix ~measured:m ~predicted:(fun i j -> Matrix.get m i j *. 0.9) in
  let points =
    Eval.evaluate ~ratios ~severity ~worst_fraction:0.2
      ~thresholds:Eval.default_thresholds
  in
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "recall nondecreasing" true (b.Eval.recall >= a.Eval.recall -. 1e-9);
      Alcotest.(check bool) "alerts nondecreasing" true (b.Eval.alerts >= a.Eval.alerts);
      check_monotone rest
    | _ -> ()
  in
  check_monotone points

let test_eval_no_alerts_vacuous () =
  let m = random_matrix 44 10 in
  let severity = Severity.all m in
  let ratios = Alert.ratio_matrix ~measured:m ~predicted:(fun _ _ -> 1e9) in
  match Eval.evaluate ~ratios ~severity ~worst_fraction:0.1 ~thresholds:[ 0.1 ] with
  | [ p ] ->
    Alcotest.(check int) "no alerts" 0 p.Eval.alerts;
    checkf "vacuous accuracy" 1. p.Eval.accuracy;
    checkf "zero recall" 0. p.Eval.recall
  | _ -> Alcotest.fail "one point expected"

let () =
  Alcotest.run "tiv"
    [
      ( "severity",
        [
          Alcotest.test_case "paper triangle" `Quick test_severity_paper_triangle;
          Alcotest.test_case "argument order" `Quick test_severity_argument_order;
          Alcotest.test_case "triangulation ratios" `Quick test_triangulation_ratios;
          Alcotest.test_case "consistent with ratios" `Quick test_severity_consistent_with_ratios;
          Alcotest.test_case "missing edge" `Quick test_severity_missing_edge;
          Alcotest.test_case "all matches edge" `Quick test_severity_all_matches_edge;
          prop_severity_zero_on_metric;
          prop_severity_nonnegative;
          Alcotest.test_case "counts consistency" `Quick test_severity_counts_consistency;
          Alcotest.test_case "worst edges" `Quick test_worst_edges;
          Alcotest.test_case "worst edges sorted" `Quick test_worst_edges_sorted;
        ] );
      ( "triangle",
        [
          Alcotest.test_case "paper triangle census" `Quick test_census_paper_triangle;
          Alcotest.test_case "metric census" `Quick test_census_metric;
          Alcotest.test_case "missing edges skipped" `Quick test_census_missing_edges;
        ] );
      ( "cluster_analysis",
        [
          Alcotest.test_case "cross worse than within" `Quick test_cluster_analysis_cross_worse;
          Alcotest.test_case "blocks partition edges" `Quick test_cluster_analysis_blocks;
          Alcotest.test_case "shade matrix shape" `Quick test_shade_matrix_shape;
        ] );
      ( "proximity",
        [
          Alcotest.test_case "result shapes" `Quick test_proximity_shapes;
          Alcotest.test_case "constant severity" `Quick test_proximity_constant_severity;
        ] );
      ( "alert",
        [
          Alcotest.test_case "ratio matrix" `Quick test_alert_ratio_matrix;
          Alcotest.test_case "thresholding" `Quick test_alert_thresholding;
          Alcotest.test_case "ratio-severity pairs" `Quick test_alert_pairs;
        ] );
      ( "eval",
        [
          Alcotest.test_case "perfect alerts" `Quick test_eval_perfect_alerts;
          Alcotest.test_case "monotone recall" `Quick test_eval_monotone_recall;
          Alcotest.test_case "vacuous accuracy" `Quick test_eval_no_alerts_vacuous;
        ] );
    ]
