(* Tests for tivaware.delay_space: matrices, I/O, clustering, shortest
   paths. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Io = Tivaware_delay_space.Io
module Clustering = Tivaware_delay_space.Clustering
module Shortest_path = Tivaware_delay_space.Shortest_path
module Properties = Tivaware_delay_space.Properties
module Euclidean = Tivaware_topology.Euclidean

let checkf = Alcotest.check (Alcotest.float 1e-9)

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Random symmetric matrix with missing entries, for property tests. *)
let random_matrix seed n missing =
  let rng = Rng.create seed in
  Matrix.init n (fun _ _ ->
      if Rng.bernoulli rng missing then nan else Rng.uniform rng 1. 500.)

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)

let test_matrix_symmetry () =
  let m = Matrix.create 4 in
  Matrix.set m 1 3 42.;
  checkf "get (1,3)" 42. (Matrix.get m 1 3);
  checkf "get (3,1)" 42. (Matrix.get m 3 1);
  Matrix.set m 3 1 7.;
  checkf "set symmetric" 7. (Matrix.get m 1 3)

let test_matrix_diagonal () =
  let m = Matrix.create 3 in
  checkf "diagonal zero" 0. (Matrix.get m 2 2);
  Alcotest.check_raises "set diagonal" (Invalid_argument "Matrix.set: diagonal entry")
    (fun () -> Matrix.set m 1 1 5.)

let test_matrix_missing () =
  let m = Matrix.create 3 in
  Alcotest.(check bool) "initially missing" true (Matrix.is_missing m 0 1);
  Alcotest.(check bool) "diagonal not missing" false (Matrix.is_missing m 1 1);
  Alcotest.(check bool) "not known" false (Matrix.known m 0 1);
  Matrix.set m 0 1 5.;
  Alcotest.(check bool) "known after set" true (Matrix.known m 0 1)

let test_matrix_init_and_edges () =
  let m = Matrix.init 4 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check int) "edge count" 6 (Matrix.edge_count m);
  let edges = Matrix.edges m in
  Alcotest.(check int) "edges array" 6 (Array.length edges);
  let i, j, v = edges.(0) in
  Alcotest.(check int) "first i" 0 i;
  Alcotest.(check int) "first j" 1 j;
  checkf "first v" 1. v

let test_matrix_iter_order () =
  let m = Matrix.init 3 (fun i j -> float_of_int (i + j)) in
  let visited = ref [] in
  Matrix.iter_edges m (fun i j _ -> visited := (i, j) :: !visited);
  Alcotest.(check (list (pair int int))) "row-major, i<j"
    [ (0, 1); (0, 2); (1, 2) ] (List.rev !visited)

let test_matrix_neighbors () =
  let m = Matrix.create 4 in
  Matrix.set m 0 2 5.;
  Matrix.set m 0 3 1.;
  Alcotest.(check (list (pair int (float 0.)))) "neighbors ascending"
    [ (2, 5.); (3, 1.) ] (Matrix.neighbors m 0);
  Alcotest.(check (option (pair int (float 0.)))) "nearest" (Some (3, 1.))
    (Matrix.nearest_neighbor m 0);
  Alcotest.(check (option (pair int (float 0.)))) "isolated node" None
    (Matrix.nearest_neighbor m 1)

let test_matrix_row () =
  let m = Matrix.init 3 (fun i j -> float_of_int (i + j)) in
  let r = Matrix.row m 1 in
  checkf "row self" 0. r.(1);
  checkf "row peer" 1. r.(0);
  checkf "row peer 2" 3. r.(2)

let test_matrix_copy_independent () =
  let m = Matrix.init 3 (fun _ _ -> 1.) in
  let c = Matrix.copy m in
  Matrix.set c 0 1 99.;
  checkf "original untouched" 1. (Matrix.get m 0 1)

let test_matrix_map () =
  let m = Matrix.init 3 (fun _ _ -> 2.) in
  let doubled = Matrix.map (fun _ _ v -> 2. *. v) m in
  checkf "mapped" 4. (Matrix.get doubled 0 2)

let prop_matrix_get_symmetric =
  qcheck "get symmetric for random fill"
    QCheck2.Gen.(pair int (int_range 2 30))
    (fun (seed, n) ->
      let m = random_matrix seed n 0.2 in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let a = Matrix.get m i j and b = Matrix.get m j i in
          if not (a = b || (Float.is_nan a && Float.is_nan b)) then ok := false
        done
      done;
      !ok)

let prop_matrix_delays_count =
  qcheck "delays length = edge_count"
    QCheck2.Gen.(pair int (int_range 2 30))
    (fun (seed, n) ->
      let m = random_matrix seed n 0.3 in
      Array.length (Matrix.delays m) = Matrix.edge_count m)

(* ------------------------------------------------------------------ *)
(* Io                                                                  *)

let temp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tivaware_test_%d_%d.dm" (Unix.getpid ()) !counter)

let test_io_roundtrip () =
  let m = random_matrix 5 12 0.15 in
  let path = temp_path () in
  Io.save m path;
  let m' = Io.load path in
  Sys.remove path;
  Alcotest.(check int) "size" (Matrix.size m) (Matrix.size m');
  let ok = ref true in
  for i = 0 to Matrix.size m - 1 do
    for j = i + 1 to Matrix.size m - 1 do
      let a = Matrix.get m i j and b = Matrix.get m' i j in
      if not (a = b || (Float.is_nan a && Float.is_nan b)) then ok := false
    done
  done;
  Alcotest.(check bool) "exact roundtrip" true !ok

let test_io_bad_header () =
  let path = temp_path () in
  Out_channel.with_open_text path (fun oc -> output_string oc "garbage\n");
  Alcotest.(check bool) "load fails" true
    (match Io.load path with
    | exception Failure _ -> true
    | _ -> false);
  Sys.remove path

let test_io_bad_entry () =
  let path = temp_path () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "tivaware-delay-matrix v1 3\n0 9 1.5\n");
  Alcotest.(check bool) "out-of-range index fails" true
    (match Io.load path with
    | exception Failure _ -> true
    | _ -> false);
  Sys.remove path

let test_io_square_import () =
  let path = temp_path () in
  Out_channel.with_open_text path (fun oc ->
      (* Asymmetric, with a timeout (-1) and a zero entry. *)
      output_string oc "0 10 30\n12 0 -1\n28\t0\t0\n");
  let m = Io.load_square path in
  Sys.remove path;
  Alcotest.(check int) "size" 3 (Matrix.size m);
  Alcotest.(check (float 1e-9)) "mean reconciliation" 11. (Matrix.get m 0 1);
  Alcotest.(check (float 1e-9)) "tab-separated parsed" 29. (Matrix.get m 0 2);
  (* 1-2 had -1 one way and 0 the other: both invalid -> missing. *)
  Alcotest.(check bool) "invalid entries missing" true (Matrix.is_missing m 1 2)

(* [load_square] over a square matrix given as text. *)
let square_of_text ?symmetrize text =
  let path = temp_path () in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  let m = Io.load_square ?symmetrize path in
  Sys.remove path;
  m

let test_io_square_symmetrize_modes () =
  let rows = "0 10\n30 0\n" in
  Alcotest.(check (float 1e-9)) "min" 10.
    (Matrix.get (square_of_text ~symmetrize:`Min rows) 0 1);
  Alcotest.(check (float 1e-9)) "max" 30.
    (Matrix.get (square_of_text ~symmetrize:`Max rows) 0 1);
  Alcotest.(check (float 1e-9)) "mean" 20.
    (Matrix.get (square_of_text ~symmetrize:`Mean rows) 0 1)

let test_io_square_one_sided () =
  (* A one-sided measurement is kept as-is. *)
  Alcotest.(check (float 1e-9)) "one-sided kept" 25.
    (Matrix.get (square_of_text "0 -1\n25 0\n") 0 1)

let test_io_square_ragged () =
  let path = temp_path () in
  Out_channel.with_open_text path (fun oc -> output_string oc "0 1\n2\n");
  Alcotest.(check bool) "ragged rejected" true
    (match Io.load_square path with
    | exception Failure _ -> true
    | _ -> false);
  Sys.remove path

let prop_io_roundtrip =
  qcheck ~count:30 "io roundtrip for arbitrary matrices"
    QCheck2.Gen.(pair int (int_range 2 20))
    (fun (seed, n) ->
      let m = random_matrix seed n 0.25 in
      let path = temp_path () in
      Io.save m path;
      let m' = Io.load path in
      Sys.remove path;
      let ok = ref (Matrix.size m = Matrix.size m') in
      Matrix.iter_edges m (fun i j v -> if Matrix.get m' i j <> v then ok := false);
      !ok && Matrix.edge_count m = Matrix.edge_count m')

(* ------------------------------------------------------------------ *)
(* Clustering                                                          *)

(* Three well-separated blobs: clustering must recover them. *)
let blob_matrix () =
  let rng = Rng.create 77 in
  Euclidean.clustered rng ~n:90
    ~centers:
      [
        (Array.make 3 0., 5.);
        ([| 200.; 0.; 0. |], 5.);
        ([| 0.; 200.; 0. |], 5.);
      ]

let test_clustering_recovers_blobs () =
  let m = blob_matrix () in
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  Alcotest.(check int) "three clusters" 3 (Array.length a.Clustering.clusters);
  let total =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 a.Clustering.clusters
  in
  Alcotest.(check bool) "nearly all classified" true (total >= 85);
  (* Members of one blob never share a cluster with another blob: check
     pairwise delays within a cluster are small. *)
  Array.iter
    (fun members ->
      Array.iter
        (fun i ->
          Array.iter
            (fun j ->
              if i <> j then
                Alcotest.(check bool) "intra-cluster delay small" true
                  (Matrix.get m i j < 120.))
            members)
        members)
    a.Clustering.clusters

let test_clustering_label_consistency () =
  let m = blob_matrix () in
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  Array.iteri
    (fun c members ->
      Array.iter
        (fun i -> Alcotest.(check int) "label matches membership" c a.Clustering.label.(i))
        members)
    a.Clustering.clusters;
  Array.iter
    (fun i -> Alcotest.(check int) "noise label" (-1) a.Clustering.label.(i))
    a.Clustering.noise

let test_clustering_sizes_descending () =
  let m = blob_matrix () in
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  let sizes = Array.map Array.length a.Clustering.clusters in
  for c = 0 to Array.length sizes - 2 do
    Alcotest.(check bool) "descending sizes" true (sizes.(c) >= sizes.(c + 1))
  done

let test_clustering_reorder_permutation () =
  let m = blob_matrix () in
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  let order = Clustering.reorder a in
  let seen = Array.make (Matrix.size m) false in
  Array.iter (fun i -> seen.(i) <- true) order;
  Alcotest.(check bool) "reorder is a permutation" true (Array.for_all Fun.id seen)

let test_same_cluster () =
  let m = blob_matrix () in
  let a = Clustering.cluster ~k:3 ~radius_ms:60. m in
  let c0 = a.Clustering.clusters.(0) in
  Alcotest.(check bool) "same cluster" true (Clustering.same_cluster a c0.(0) c0.(1));
  (match a.Clustering.noise with
  | [||] -> ()
  | noise ->
    Alcotest.(check bool) "noise never same" false
      (Clustering.same_cluster a noise.(0) noise.(0)))

(* ------------------------------------------------------------------ *)
(* Shortest paths                                                      *)

let test_sp_known_graph () =
  (* 0 -1- 1 -1- 2 with a direct 0-2 edge of 5: shortest 0->2 is 2. *)
  let m = Matrix.create 3 in
  Matrix.set m 0 1 1.;
  Matrix.set m 1 2 1.;
  Matrix.set m 0 2 5.;
  let d = Shortest_path.single_source m 0 in
  checkf "direct beaten" 2. d.(2);
  checkf "one hop" 1. d.(1);
  let sp = Shortest_path.all_pairs m in
  checkf "all_pairs agrees" 2. (Matrix.get sp 0 2)

let test_sp_unreachable () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 1.;
  (* node 2 is isolated *)
  let d = Shortest_path.single_source m 0 in
  Alcotest.(check bool) "unreachable infinity" true (d.(2) = infinity)

let prop_sp_never_longer =
  qcheck ~count:30 "shortest path <= measured delay"
    QCheck2.Gen.(pair int (int_range 3 25))
    (fun (seed, n) ->
      let m = random_matrix seed n 0.1 in
      let sp = Shortest_path.all_pairs m in
      let ok = ref true in
      Matrix.iter_edges m (fun i j v ->
          if Matrix.get sp i j > v +. 1e-9 then ok := false);
      !ok)

let prop_sp_metric =
  qcheck ~count:30 "shortest-path closure satisfies the triangle inequality"
    QCheck2.Gen.(pair int (int_range 3 20))
    (fun (seed, n) ->
      let m = random_matrix seed n 0. in
      let sp = Shortest_path.all_pairs m in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if i <> j && j <> k && i <> k then begin
              let dij = Matrix.get sp i j
              and djk = Matrix.get sp j k
              and dik = Matrix.get sp i k in
              if dik > dij +. djk +. 1e-6 then ok := false
            end
          done
        done
      done;
      !ok)

let test_inflation_entries () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 1.;
  Matrix.set m 1 2 1.;
  Matrix.set m 0 2 5.;
  let inf = Shortest_path.inflation m in
  Alcotest.(check int) "one entry per edge" 3 (Array.length inf);
  let _, _, measured, shortest =
    Array.to_list inf
    |> List.find (fun (i, j, _, _) -> i = 0 && j = 2)
  in
  checkf "measured" 5. measured;
  checkf "shortest" 2. shortest

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)

module Repair = Tivaware_delay_space.Repair

let test_repair_fill_shortest_path () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 10.;
  Matrix.set m 1 2 10.;
  Matrix.set m 2 3 10.;
  (* 0-2, 0-3, 1-3 missing *)
  let filled = Repair.fill_missing_shortest_path m in
  checkf "0-2 filled with path" 20. (Matrix.get filled 0 2);
  checkf "0-3 filled with path" 30. (Matrix.get filled 0 3);
  checkf "present entries untouched" 10. (Matrix.get filled 0 1);
  Alcotest.(check int) "no missing left" 0 (Repair.missing_count filled)

let test_repair_fill_unreachable_stays_missing () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  (* node 2 isolated *)
  let filled = Repair.fill_missing_shortest_path m in
  Alcotest.(check bool) "isolated pair still missing" true
    (Matrix.is_missing filled 0 2)

let prop_repair_fill_never_creates_new_violations =
  qcheck ~count:20 "shortest-path fill adds no violation on filled edges"
    QCheck2.Gen.(pair int (int_range 4 15))
    (fun (seed, n) ->
      let m = random_matrix seed n 0.3 in
      let filled = Repair.fill_missing_shortest_path m in
      (* A filled edge equals the shortest path, hence cannot exceed any
         two-leg alternative by more than float noise: all its
         triangulation ratios stay at ~1. *)
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Matrix.is_missing m i j && Matrix.known filled i j then begin
            let e = Tivaware_tiv.Severity.edge filled i j in
            if e.Tivaware_tiv.Severity.max_ratio > 1. +. 1e-9 then ok := false
          end
        done
      done;
      !ok)

let test_repair_clamp () =
  let m = Matrix.init 10 (fun i j -> if i = 0 && j = 1 then 1000. else 10.) in
  let clamped = Repair.clamp_outliers m ~percentile:90. in
  Alcotest.(check bool) "outlier capped" true (Matrix.get clamped 0 1 <= 10. +. 1e-9);
  Alcotest.check_raises "bad percentile"
    (Invalid_argument "Repair.clamp_outliers: percentile must be in (0, 100]")
    (fun () -> ignore (Repair.clamp_outliers m ~percentile:0.))

let test_repair_drop_low_degree () =
  (* Chain 0-1-2 plus isolated 3: min_degree 2 kills 3, then 0 and 2
     (degree 1), then 1. *)
  let m = Matrix.create 4 in
  Matrix.set m 0 1 1.;
  Matrix.set m 1 2 1.;
  let out, mapping = Repair.drop_low_degree m ~min_degree:2 in
  Alcotest.(check int) "everything cascades away" 0 (Matrix.size out);
  Alcotest.(check int) "empty mapping" 0 (Array.length mapping);
  (* A triangle survives min_degree 2. *)
  let t = Matrix.create 4 in
  Matrix.set t 0 1 1.;
  Matrix.set t 1 3 1.;
  Matrix.set t 0 3 1.;
  let out, mapping = Repair.drop_low_degree t ~min_degree:2 in
  Alcotest.(check int) "triangle survives" 3 (Matrix.size out);
  Alcotest.(check (array int)) "mapping to original ids" [| 0; 1; 3 |] mapping;
  checkf "delays remapped" 1. (Matrix.get out 0 2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let test_properties () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 10.;
  Matrix.set m 2 3 30.;
  let p = Properties.analyze m in
  Alcotest.(check int) "nodes" 4 p.Properties.nodes;
  Alcotest.(check int) "edges" 2 p.Properties.edges;
  checkf "missing fraction" (4. /. 6.) p.Properties.missing_fraction;
  checkf "mean delay" 20. p.Properties.delay.Tivaware_util.Stats.mean

let () =
  Alcotest.run "delay_space"
    [
      ( "matrix",
        [
          Alcotest.test_case "symmetry" `Quick test_matrix_symmetry;
          Alcotest.test_case "diagonal" `Quick test_matrix_diagonal;
          Alcotest.test_case "missing entries" `Quick test_matrix_missing;
          Alcotest.test_case "init and edges" `Quick test_matrix_init_and_edges;
          Alcotest.test_case "iteration order" `Quick test_matrix_iter_order;
          Alcotest.test_case "neighbors" `Quick test_matrix_neighbors;
          Alcotest.test_case "row" `Quick test_matrix_row;
          Alcotest.test_case "copy independent" `Quick test_matrix_copy_independent;
          Alcotest.test_case "map" `Quick test_matrix_map;
          prop_matrix_get_symmetric;
          prop_matrix_delays_count;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "bad header" `Quick test_io_bad_header;
          Alcotest.test_case "bad entry" `Quick test_io_bad_entry;
          Alcotest.test_case "square import" `Quick test_io_square_import;
          Alcotest.test_case "symmetrize modes" `Quick test_io_square_symmetrize_modes;
          Alcotest.test_case "one-sided measurements" `Quick test_io_square_one_sided;
          Alcotest.test_case "ragged rejected" `Quick test_io_square_ragged;
          prop_io_roundtrip;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "recovers blobs" `Quick test_clustering_recovers_blobs;
          Alcotest.test_case "label consistency" `Quick test_clustering_label_consistency;
          Alcotest.test_case "sizes descending" `Quick test_clustering_sizes_descending;
          Alcotest.test_case "reorder permutation" `Quick test_clustering_reorder_permutation;
          Alcotest.test_case "same_cluster" `Quick test_same_cluster;
        ] );
      ( "shortest_path",
        [
          Alcotest.test_case "known graph" `Quick test_sp_known_graph;
          Alcotest.test_case "unreachable" `Quick test_sp_unreachable;
          prop_sp_never_longer;
          prop_sp_metric;
          Alcotest.test_case "inflation" `Quick test_inflation_entries;
        ] );
      ( "repair",
        [
          Alcotest.test_case "fill shortest path" `Quick test_repair_fill_shortest_path;
          Alcotest.test_case "unreachable stays missing" `Quick
            test_repair_fill_unreachable_stays_missing;
          prop_repair_fill_never_creates_new_violations;
          Alcotest.test_case "clamp outliers" `Quick test_repair_clamp;
          Alcotest.test_case "drop low degree" `Quick test_repair_drop_low_degree;
        ] );
      ("properties", [ Alcotest.test_case "analyze" `Quick test_properties ]);
    ]
