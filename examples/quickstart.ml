(* Quickstart: generate a delay space, measure its TIVs, embed it with
   Vivaldi, and pick a nearest neighbor with and without TIV awareness.

   Run with:  dune exec examples/quickstart.exe *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Severity = Tivaware_tiv.Severity
module Triangle = Tivaware_tiv.Triangle
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Penalty = Tivaware_core.Penalty

let () =
  (* 1. A synthetic Internet delay space with realistic TIVs. *)
  let data = Datasets.generate ~size:200 ~seed:7 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let census = Triangle.census m in
  Printf.printf "delay space: %d nodes, %.1f%% of triangles violate the inequality\n"
    (Matrix.size m) (100. *. census.Triangle.fraction);

  (* 2. Quantify per-edge TIV severity (Section 2 of the paper). *)
  let severity = Severity.all m in
  let sev_summary = Stats.summarize (Matrix.delays severity) in
  Printf.printf "TIV severity: median %.3f, p90 %.3f, max %.2f\n"
    sev_summary.Stats.p50 sev_summary.Stats.p90 sev_summary.Stats.max;

  (* 3. Embed with Vivaldi and select neighbors from coordinates. *)
  let rng = Rng.create 42 in
  let system = Selectors.embed_vivaldi rng m in
  let result =
    Experiment.run_predictor rng m ~runs:3 ~candidate_count:40
      ~predict:(System.predicted system) ()
  in
  Printf.printf "Vivaldi neighbor selection:           %s\n"
    (Penalty.summarize result.Experiment.penalties);

  (* 4. Make it TIV-aware: dynamic neighbor refresh driven by the
        prediction-ratio alert (Section 5.2). *)
  Dynamic_neighbors.run system
    { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
  let result' =
    Experiment.run_predictor rng m ~runs:3 ~candidate_count:40
      ~predict:(System.predicted system) ()
  in
  Printf.printf "dynamic-neighbor Vivaldi (TIV-aware): %s\n"
    (Penalty.summarize result'.Experiment.penalties)
