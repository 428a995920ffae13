(* Tests for the synthetic delay-space generator and its substrates. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Router_graph = Tivaware_topology.Router_graph
module Generator = Tivaware_topology.Generator
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets

let checkf = Alcotest.check (Alcotest.float 1e-9)

let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Router_graph                                                        *)

let test_graph_validation () =
  let g = Router_graph.create 3 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Router_graph.add_edge: self-loop") (fun () ->
      Router_graph.add_edge g 1 1 5.);
  Alcotest.check_raises "non-positive weight"
    (Invalid_argument "Router_graph.add_edge: non-positive weight") (fun () ->
      Router_graph.add_edge g 0 1 0.)

let test_graph_neighbors () =
  let g = Router_graph.create 3 in
  Router_graph.add_edge g 0 1 2.;
  Router_graph.add_edge g 0 2 3.;
  Alcotest.(check int) "degree" 2 (List.length (Router_graph.neighbors g 0));
  Alcotest.(check int) "symmetric degree" 1 (List.length (Router_graph.neighbors g 1))

let test_graph_connected () =
  let g = Router_graph.create 3 in
  Router_graph.add_edge g 0 1 1.;
  Alcotest.(check bool) "disconnected" false (Router_graph.connected g);
  Router_graph.add_edge g 1 2 1.;
  Alcotest.(check bool) "connected" true (Router_graph.connected g)

let test_graph_shortest_paths () =
  let g = Router_graph.create 4 in
  Router_graph.add_edge g 0 1 1.;
  Router_graph.add_edge g 1 2 1.;
  Router_graph.add_edge g 2 3 1.;
  Router_graph.add_edge g 0 3 10.;
  let sp = Router_graph.shortest_paths g in
  checkf "multi-hop beats direct" 3. sp.(0).(3);
  checkf "self" 0. sp.(2).(2);
  checkf "symmetric" sp.(1).(3) sp.(3).(1)

let test_graph_parallel_edges () =
  let g = Router_graph.create 2 in
  Router_graph.add_edge g 0 1 10.;
  Router_graph.add_edge g 0 1 4.;
  let sp = Router_graph.shortest_paths g in
  checkf "cheapest parallel edge wins" 4. sp.(0).(1)

let prop_random_connected =
  qcheck "random_connected graphs are connected"
    QCheck2.Gen.(pair int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g =
        Router_graph.random_connected rng ~n ~extra_edges:3 ~weight:(fun () ->
            1. +. Rng.float rng 10.)
      in
      let degrees = List.init n (fun i -> List.length (Router_graph.neighbors g i)) in
      Router_graph.connected g && List.fold_left ( + ) 0 degrees >= 2 * (n - 1))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let small_params n = { Generator.default with Generator.nodes = n }

let test_generator_validation () =
  let bad fractions =
    {
      Generator.default with
      Generator.clusters =
        List.map
          (fun f -> { (List.hd Generator.default.Generator.clusters) with Generator.fraction = f })
          fractions;
    }
  in
  let rejected p =
    match Generator.generate (Rng.create 0) p with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "fractions must sum to 1" true (rejected (bad [ 0.5; 0.2 ]));
  Alcotest.(check bool) "default shape valid" false (rejected (small_params 60));
  Alcotest.(check bool) "tiny node count invalid" true (rejected (small_params 2));
  Alcotest.(check bool) "bad jitter" true
    (rejected { Generator.default with Generator.jitter = 1.5 })

let test_generator_shape () =
  let data = Generator.generate (Rng.create 1) (small_params 120) in
  Alcotest.(check int) "matrix size" 120 (Matrix.size data.Generator.matrix);
  Alcotest.(check int) "labels size" 120 (Array.length data.Generator.cluster_of);
  let labels = Array.to_list data.Generator.cluster_of in
  Alcotest.(check bool) "three clusters populated" true
    (List.mem 0 labels && List.mem 1 labels && List.mem 2 labels)

let test_generator_determinism () =
  let a = Generator.generate (Rng.create 5) (small_params 60) in
  let b = Generator.generate (Rng.create 5) (small_params 60) in
  let equal = ref true in
  for i = 0 to 59 do
    for j = i + 1 to 59 do
      let x = Matrix.get a.Generator.matrix i j
      and y = Matrix.get b.Generator.matrix i j in
      if not (x = y || (Float.is_nan x && Float.is_nan y)) then equal := false
    done
  done;
  Alcotest.(check bool) "same seed, same matrix" true !equal

let prop_base_is_metric =
  qcheck ~count:20 "base delays satisfy the triangle inequality"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let data = Generator.generate (Rng.create seed) (small_params 40) in
      let base = data.Generator.base in
      let ok = ref true in
      for i = 0 to 39 do
        for j = 0 to 39 do
          for k = 0 to 39 do
            if i <> j && j <> k && i <> k then begin
              let a = Matrix.get base i k
              and b = Matrix.get base i j
              and c = Matrix.get base j k in
              if a > b +. c +. 1e-6 then ok := false
            end
          done
        done
      done;
      !ok)

let prop_measured_vs_base =
  qcheck ~count:20 "measured delay bounded by inflation envelope"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p = small_params 40 in
      let data = Generator.generate (Rng.create seed) p in
      let ok = ref true in
      Matrix.iter_edges data.Generator.matrix (fun i j v ->
          let b = Matrix.get data.Generator.base i j in
          let lo = b *. (1. -. p.Generator.jitter) -. 1e-9 in
          let hi =
            b *. p.Generator.inflation_max *. (1. +. p.Generator.jitter) +. 1e-9
          in
          if v < lo || v > hi then ok := false);
      !ok)

let test_generator_missing_fraction () =
  let p = { (small_params 150) with Generator.missing_fraction = 0.1 } in
  let data = Generator.generate (Rng.create 3) p in
  let pairs = 150 * 149 / 2 in
  let present = Matrix.edge_count data.Generator.matrix in
  let missing = float_of_int (pairs - present) /. float_of_int pairs in
  Alcotest.(check bool) "missing fraction near 10%" true
    (missing > 0.06 && missing < 0.14)

let test_generator_has_tivs () =
  let data = Generator.generate (Rng.create 4) (small_params 100) in
  let census = Tivaware_tiv.Triangle.census data.Generator.matrix in
  Alcotest.(check bool) "violations exist" true
    (census.Tivaware_tiv.Triangle.fraction > 0.01);
  Alcotest.(check bool) "but not everywhere" true
    (census.Tivaware_tiv.Triangle.fraction < 0.6)

(* ------------------------------------------------------------------ *)
(* Euclidean                                                           *)

let prop_euclidean_metric =
  qcheck ~count:20 "euclidean generator is TIV-free"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let m = Euclidean.uniform_box (Rng.create seed) ~n:30 ~dim:3 ~side_ms:200. in
      let census = Tivaware_tiv.Triangle.census m in
      census.Tivaware_tiv.Triangle.violating = 0)

let prop_clustered_metric =
  qcheck ~count:20 "clustered euclidean generator is TIV-free"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let m =
        Euclidean.clustered (Rng.create seed) ~n:30
          ~centers:[ (Array.make 3 0., 10.); ([| 100.; 0.; 0. |], 10.) ]
      in
      let census = Tivaware_tiv.Triangle.census m in
      census.Tivaware_tiv.Triangle.violating = 0)

let test_euclidean_bounds () =
  let m = Euclidean.uniform_box (Rng.create 9) ~n:50 ~dim:2 ~side_ms:100. in
  Matrix.iter_edges m (fun _ _ v ->
      Alcotest.(check bool) "within diagonal bound" true (v <= 100. *. sqrt 2. +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Synthesizer                                                         *)

module Synthesizer = Tivaware_topology.Synthesizer
module Stats = Tivaware_util.Stats

let source_world seed = Generator.generate (Rng.create seed) (small_params 150)

let test_synth_model_shape () =
  let data = source_world 20 in
  let model = Synthesizer.analyze data.Generator.matrix in
  Alcotest.(check int) "source size" 150 (Synthesizer.source_size model);
  let fractions = Synthesizer.cluster_fractions model in
  Alcotest.(check bool) "fractions sum to 1" true
    (abs_float (Array.fold_left ( +. ) 0. fractions -. 1.) < 1e-9);
  Alcotest.(check bool) "missing fraction sane" true
    (Synthesizer.missing_fraction model >= 0. && Synthesizer.missing_fraction model < 0.2)

let test_synth_size_and_labels () =
  let data = source_world 21 in
  let model = Synthesizer.analyze data.Generator.matrix in
  let m, labels = Synthesizer.synthesize_with_clusters (Rng.create 22) model ~size:220 in
  Alcotest.(check int) "matrix size" 220 (Matrix.size m);
  Alcotest.(check int) "labels size" 220 (Array.length labels);
  (* Cluster shares of the synthetic space track the source model. *)
  let fractions = Synthesizer.cluster_fractions model in
  let k = Array.length fractions - 1 in
  for c = 0 to k - 1 do
    let share =
      float_of_int (Array.fold_left (fun acc l -> if l = c then acc + 1 else acc) 0 labels)
      /. 220.
    in
    Alcotest.(check bool)
      (Printf.sprintf "cluster %d share %.2f ~ %.2f" c share fractions.(c))
      true
      (abs_float (share -. fractions.(c)) < 0.05)
  done

let test_synth_delay_distribution_matches () =
  let data = source_world 23 in
  let source = data.Generator.matrix in
  let model = Synthesizer.analyze source in
  let synth = Synthesizer.synthesize (Rng.create 24) model ~size:300 in
  let med m = Stats.median (Matrix.delays m) in
  let p90 m = Stats.percentile (Matrix.delays m) 90. in
  Alcotest.(check bool)
    (Printf.sprintf "median delay %.0f ~ %.0f" (med synth) (med source))
    true
    (abs_float (med synth -. med source) /. med source < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "p90 delay %.0f ~ %.0f" (p90 synth) (p90 source))
    true
    (abs_float (p90 synth -. p90 source) /. p90 source < 0.25)

let test_synth_preserves_tivs () =
  let data = source_world 25 in
  let model = Synthesizer.analyze data.Generator.matrix in
  let synth = Synthesizer.synthesize (Rng.create 26) model ~size:200 in
  let census = Tivaware_tiv.Triangle.census synth in
  Alcotest.(check bool)
    (Printf.sprintf "synthetic space has TIVs (%.1f%%)" (100. *. census.Tivaware_tiv.Triangle.fraction))
    true
    (census.Tivaware_tiv.Triangle.fraction > 0.02)

let test_synth_deterministic () =
  let data = source_world 27 in
  let model = Synthesizer.analyze data.Generator.matrix in
  let a = Synthesizer.synthesize (Rng.create 5) model ~size:100 in
  let b = Synthesizer.synthesize (Rng.create 5) model ~size:100 in
  let same = ref true in
  Matrix.iter_edges a (fun i j v -> if Matrix.get b i j <> v then same := false);
  Alcotest.(check bool) "same seed, same synthesis" true !same

(* ------------------------------------------------------------------ *)
(* Datasets                                                            *)

let test_dataset_sizes () =
  List.iter
    (fun preset ->
      let data = Datasets.generate ~size:80 ~seed:1 preset in
      Alcotest.(check int) "size override" 80 (Matrix.size data.Generator.matrix))
    Datasets.all

let test_dataset_names () =
  Alcotest.(check string) "ds2 name" "DS2-560-data" (Datasets.name Datasets.Ds2);
  Alcotest.(check string) "sized name" "p2psim-42-data"
    (Datasets.name ~size:42 Datasets.P2psim)

let test_dataset_determinism () =
  let a = Datasets.generate ~size:60 ~seed:7 Datasets.Meridian in
  let b = Datasets.generate ~size:60 ~seed:7 Datasets.Meridian in
  Alcotest.(check (float 0.)) "deterministic entry"
    (Matrix.get a.Generator.matrix 3 17)
    (Matrix.get b.Generator.matrix 3 17)

let test_dataset_independence () =
  (* Same master seed must still give distinct delay spaces per preset. *)
  let a = Datasets.generate ~size:60 ~seed:7 Datasets.Ds2 in
  let b = Datasets.generate ~size:60 ~seed:7 Datasets.P2psim in
  Alcotest.(check bool) "presets differ" true
    (Matrix.get a.Generator.matrix 0 1 <> Matrix.get b.Generator.matrix 0 1)

let test_dataset_severity_ordering () =
  (* The Meridian-like preset must have heavier TIVs than the p2psim-like
     preset, matching the paper's Figure 2 ordering. *)
  let sev preset =
    let data = Datasets.generate ~size:120 ~seed:3 preset in
    let s = Tivaware_tiv.Severity.all data.Generator.matrix in
    Tivaware_util.Stats.mean (Matrix.delays s)
  in
  Alcotest.(check bool) "meridian worse than p2psim" true
    (sev Datasets.Meridian > sev Datasets.P2psim)

let () =
  Alcotest.run "topology"
    [
      ( "router_graph",
        [
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "connected" `Quick test_graph_connected;
          Alcotest.test_case "shortest paths" `Quick test_graph_shortest_paths;
          Alcotest.test_case "parallel edges" `Quick test_graph_parallel_edges;
          prop_random_connected;
        ] );
      ( "generator",
        [
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "shape" `Quick test_generator_shape;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          prop_base_is_metric;
          prop_measured_vs_base;
          Alcotest.test_case "missing fraction" `Quick test_generator_missing_fraction;
          Alcotest.test_case "produces TIVs" `Quick test_generator_has_tivs;
        ] );
      ( "euclidean",
        [
          prop_euclidean_metric;
          prop_clustered_metric;
          Alcotest.test_case "bounds" `Quick test_euclidean_bounds;
        ] );
      ( "synthesizer",
        [
          Alcotest.test_case "model shape" `Quick test_synth_model_shape;
          Alcotest.test_case "size and labels" `Quick test_synth_size_and_labels;
          Alcotest.test_case "delay distribution" `Quick test_synth_delay_distribution_matches;
          Alcotest.test_case "preserves TIVs" `Quick test_synth_preserves_tivs;
          Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "sizes" `Quick test_dataset_sizes;
          Alcotest.test_case "names" `Quick test_dataset_names;
          Alcotest.test_case "determinism" `Quick test_dataset_determinism;
          Alcotest.test_case "preset independence" `Quick test_dataset_independence;
          Alcotest.test_case "severity ordering" `Quick test_dataset_severity_ordering;
        ] );
    ]
