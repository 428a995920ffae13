(* Tests for the IDES and LAT strawman embeddings. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Vec = Tivaware_util.Vec
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module System = Tivaware_vivaldi.System
module Ides = Tivaware_embedding.Ides
module Lat = Tivaware_embedding.Lat
module Error = Tivaware_embedding.Error

let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf_loose eps = Alcotest.check (Alcotest.float eps)

(* A perfectly factorizable "delay" matrix: D(i,j) = x_i . y_j with
   symmetric structure.  IDES must fit this with tiny error. *)
let factorizable_matrix seed n dim =
  let rng = Rng.create seed in
  let vecs =
    Array.init n (fun _ -> Array.init dim (fun _ -> Rng.uniform rng 0.5 3.))
  in
  Matrix.init n (fun i j -> Vec.dot vecs.(i) vecs.(j))

let test_ides_fits_factorizable () =
  let m = factorizable_matrix 1 40 4 in
  let config = { Ides.dim = 4; landmarks = 12; iterations = 4000; learning_rate = 1e-4; nonnegative = false } in
  let ides = Ides.fit ~config (Rng.create 2) m in
  Alcotest.(check bool)
    (Printf.sprintf "landmark rmse small (%.3f)" (Ides.landmark_rmse ides))
    true
    (Ides.landmark_rmse ides < 0.5);
  let err = Error.evaluate m ~predicted:(Ides.predicted ides) in
  Alcotest.(check bool)
    (Printf.sprintf "median relative error small (%.3f)" err.Error.median_rel)
    true (err.Error.median_rel < 0.1)

let test_ides_euclidean_reasonable () =
  let m = Euclidean.uniform_box (Rng.create 3) ~n:60 ~dim:3 ~side_ms:200. in
  let ides = Ides.fit (Rng.create 4) m in
  let err = Error.evaluate m ~predicted:(Ides.predicted ides) in
  Alcotest.(check bool)
    (Printf.sprintf "usable accuracy (%.3f)" err.Error.median_rel)
    true (err.Error.median_rel < 0.5)

let test_ides_nonnegative_output () =
  let m = Euclidean.uniform_box (Rng.create 5) ~n:40 ~dim:3 ~side_ms:100. in
  let ides = Ides.fit (Rng.create 6) m in
  for i = 0 to 39 do
    for j = 0 to 39 do
      Alcotest.(check bool) "predictions floored at 0" true (Ides.predicted ides i j >= 0.)
    done
  done

let test_ides_nmf_variant () =
  let m = factorizable_matrix 7 30 3 in
  let config =
    { Ides.dim = 3; landmarks = 10; nonnegative = true; iterations = 4000;
      learning_rate = 1e-4 }
  in
  let ides = Ides.fit ~config (Rng.create 8) m in
  let err = Error.evaluate m ~predicted:(Ides.predicted ides) in
  Alcotest.(check bool)
    (Printf.sprintf "nmf fits non-negative data (%.3f)" err.Error.median_rel)
    true (err.Error.median_rel < 0.2)

let test_ides_too_few_nodes () =
  let m = Matrix.init 5 (fun _ _ -> 10.) in
  Alcotest.check_raises "fewer nodes than landmarks"
    (Invalid_argument "Ides.fit: fewer nodes than landmarks") (fun () ->
      ignore (Ides.fit (Rng.create 9) m))

(* ------------------------------------------------------------------ *)
(* GNP                                                                 *)

module Gnp = Tivaware_embedding.Gnp

let test_gnp_euclidean_accuracy () =
  (* GNP must embed a genuinely Euclidean space with low error. *)
  let m = Euclidean.uniform_box (Rng.create 20) ~n:50 ~dim:3 ~side_ms:200. in
  let config = { Gnp.default_config with Gnp.dim = 3; landmarks = 10 } in
  let gnp = Gnp.fit ~config (Rng.create 21) m in
  let err = Error.evaluate m ~predicted:(Gnp.predicted gnp) in
  Alcotest.(check bool)
    (Printf.sprintf "median relative error small (%.3f)" err.Error.median_rel)
    true (err.Error.median_rel < 0.15)

let test_gnp_too_few_nodes () =
  let m = Matrix.init 5 (fun _ _ -> 10.) in
  Alcotest.check_raises "fewer nodes than landmarks"
    (Invalid_argument "Gnp.fit: fewer nodes than landmarks") (fun () ->
      ignore (Gnp.fit (Rng.create 24) m))

let test_gnp_symmetric_predictions () =
  let m = Euclidean.uniform_box (Rng.create 27) ~n:25 ~dim:2 ~side_ms:100. in
  let config = { Gnp.default_config with Gnp.landmarks = 8; restarts = 1 } in
  let gnp = Gnp.fit ~config (Rng.create 28) m in
  for i = 0 to 24 do
    for j = 0 to 24 do
      checkf "symmetric" (Gnp.predicted gnp i j) (Gnp.predicted gnp j i)
    done
  done

(* ------------------------------------------------------------------ *)
(* Virtual landmarks                                                   *)

module Virtual_landmarks = Tivaware_embedding.Virtual_landmarks

let test_vl_euclidean_accuracy () =
  let m = Euclidean.uniform_box (Rng.create 30) ~n:80 ~dim:3 ~side_ms:200. in
  let config =
    { Virtual_landmarks.dim = 3; landmarks = 20; scale_sample = 2000 }
  in
  let vl = Virtual_landmarks.fit ~config (Rng.create 31) m in
  let err = Error.evaluate m ~predicted:(Virtual_landmarks.predicted vl) in
  Alcotest.(check bool)
    (Printf.sprintf "median relative error reasonable (%.3f)" err.Error.median_rel)
    true (err.Error.median_rel < 0.25)

let test_vl_too_few_nodes () =
  let m = Matrix.init 5 (fun _ _ -> 10.) in
  Alcotest.check_raises "fewer nodes than landmarks"
    (Invalid_argument "Virtual_landmarks.fit: fewer nodes than landmarks")
    (fun () -> ignore (Virtual_landmarks.fit (Rng.create 36) m))

let test_vl_handles_missing () =
  let rng = Rng.create 37 in
  let m =
    Matrix.init 40 (fun _ _ ->
        if Rng.bernoulli rng 0.15 then nan else Rng.uniform rng 10. 200.)
  in
  let config =
    { Virtual_landmarks.dim = 5; landmarks = 10; scale_sample = 2000 }
  in
  let vl = Virtual_landmarks.fit ~config (Rng.create 38) m in
  for i = 0 to 39 do
    for j = 0 to 39 do
      Alcotest.(check bool) "finite predictions despite holes" true
        (Float.is_finite (Virtual_landmarks.predicted vl i j))
    done
  done

(* ------------------------------------------------------------------ *)
(* LAT                                                                 *)

let test_lat_formula () =
  (* Hand-check the adjustment on a 3-node system with full sampling. *)
  let m = Matrix.create 3 in
  Matrix.set m 0 1 10.;
  Matrix.set m 0 2 20.;
  Matrix.set m 1 2 30.;
  let config = { System.default_config with System.neighbors_per_node = 2 } in
  let system = System.create ~config (Rng.create 12) m in
  let lat = Lat.fit ~sample_size:2 (Rng.create 13) system in
  (* e_x = sum over the other two nodes of (d - pred) / (2 * 2), and
     the prediction adds both endpoints' adjustments. *)
  let p = System.predicted system in
  let e0 = ((10. -. p 0 1) +. (20. -. p 0 2)) /. 4.
  and e1 = ((10. -. p 1 0) +. (30. -. p 1 2)) /. 4. in
  checkf_loose 1e-9 "adjustments match definition"
    (Float.max 0. (p 0 1 +. e0 +. e1))
    (Lat.predicted lat 0 1)

let test_lat_predicted_floor () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 0.5;
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let system = System.create ~config (Rng.create 14) m in
  let lat = Lat.fit (Rng.create 15) system in
  Alcotest.(check bool) "non-negative prediction" true (Lat.predicted lat 0 1 >= 0.)

let test_lat_improves_or_matches_aggregate () =
  (* LAT corrects systematic per-node bias, so on a TIV-heavy space its
     aggregate error should not be dramatically worse than raw Vivaldi. *)
  let data =
    Tivaware_topology.Datasets.generate ~size:100 ~seed:16 Tivaware_topology.Datasets.Ds2
  in
  let m = data.Tivaware_topology.Generator.matrix in
  let system = System.create (Rng.create 17) m in
  System.run system ~rounds:200;
  let lat = Lat.fit (Rng.create 18) system in
  let vivaldi_err = Error.evaluate m ~predicted:(fun i j -> System.predicted system i j) in
  let lat_err = Error.evaluate m ~predicted:(Lat.predicted lat) in
  Alcotest.(check bool)
    (Printf.sprintf "LAT median %.2f vs Vivaldi %.2f" lat_err.Error.median_abs
       vivaldi_err.Error.median_abs)
    true
    (lat_err.Error.median_abs < vivaldi_err.Error.median_abs *. 1.5)

(* ------------------------------------------------------------------ *)
(* Error                                                               *)

let test_error_perfect_predictor () =
  let m = Matrix.init 10 (fun i j -> float_of_int (i + j + 1)) in
  let e = Error.evaluate m ~predicted:(fun i j -> Matrix.get m i j) in
  checkf "median abs" 0. e.Error.median_abs;
  checkf "p90 rel" 0. e.Error.p90_rel;
  Alcotest.(check int) "all edges" 45 e.Error.edges

let test_error_constant_offset () =
  let m = Matrix.init 10 (fun _ _ -> 100.) in
  let e = Error.evaluate m ~predicted:(fun _ _ -> 110.) in
  checkf "median abs = offset" 10. e.Error.median_abs;
  checkf_loose 1e-9 "median rel" 0.1 e.Error.median_rel

let test_error_skips_zero_delays () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 0.;
  Matrix.set m 0 2 50.;
  let e = Error.evaluate m ~predicted:(fun _ _ -> 50.) in
  Alcotest.(check int) "zero-delay edge skipped" 1 e.Error.edges

let () =
  Alcotest.run "embedding"
    [
      ( "ides",
        [
          Alcotest.test_case "fits factorizable matrix" `Slow test_ides_fits_factorizable;
          Alcotest.test_case "euclidean accuracy" `Quick test_ides_euclidean_reasonable;
          Alcotest.test_case "non-negative output" `Quick test_ides_nonnegative_output;
          Alcotest.test_case "nmf variant" `Slow test_ides_nmf_variant;
          Alcotest.test_case "too few nodes" `Quick test_ides_too_few_nodes;
        ] );
      ( "gnp",
        [
          Alcotest.test_case "euclidean accuracy" `Slow test_gnp_euclidean_accuracy;
          Alcotest.test_case "too few nodes" `Quick test_gnp_too_few_nodes;
          Alcotest.test_case "symmetric predictions" `Quick test_gnp_symmetric_predictions;
        ] );
      ( "virtual_landmarks",
        [
          Alcotest.test_case "euclidean accuracy" `Quick test_vl_euclidean_accuracy;
          Alcotest.test_case "too few nodes" `Quick test_vl_too_few_nodes;
          Alcotest.test_case "handles missing" `Quick test_vl_handles_missing;
        ] );
      ( "lat",
        [
          Alcotest.test_case "adjustment formula" `Quick test_lat_formula;
          Alcotest.test_case "prediction floor" `Quick test_lat_predicted_floor;
          Alcotest.test_case "aggregate accuracy sane" `Quick test_lat_improves_or_matches_aggregate;
        ] );
      ( "error",
        [
          Alcotest.test_case "perfect predictor" `Quick test_error_perfect_predictor;
          Alcotest.test_case "constant offset" `Quick test_error_constant_offset;
          Alcotest.test_case "skips zero delays" `Quick test_error_skips_zero_delays;
        ] );
    ]
