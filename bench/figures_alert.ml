(* Section 5.1-5.2 figures: the TIV alert mechanism and dynamic-neighbor
   Vivaldi. *)

module Rng = Tivaware_util.Rng
module Binned = Tivaware_util.Binned
module Table = Tivaware_util.Table
module Matrix = Tivaware_delay_space.Matrix
module Alert = Tivaware_tiv.Alert
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors

let fig19 ctx =
  Report.section "fig19" "TIV severity vs embedding prediction ratio";
  Report.expectation
    "shrunk edges (ratio << 1) have high severity; ratio > 2 edges have \
     severity ~0; trend is clear though noisy per bin";
  let pairs =
    Alert.ratio_severity_pairs ~ratios:(Context.ratios ctx)
      ~severity:(Context.severity ctx)
  in
  let binned = Binned.make ~width:0.25 ~x_max:5. (Array.to_seq pairs) in
  Report.binned_table ~x_label:"pred_ratio" ~y_label:"sev" binned

let fig20_21 ctx =
  Report.section "fig20-21" "TIV alert accuracy and recall vs threshold";
  Report.expectation
    "tight threshold (0.1): very high accuracy, tiny recall; relaxing \
     trades accuracy for recall; at 0.6 a few %% of edges are alerted \
     with ~70%% of the worst-1%% caught";
  let ratios = Context.ratios ctx and severity = Context.severity ctx in
  let fractions = [ 0.01; 0.05; 0.10; 0.20 ] in
  let results =
    List.map
      (fun f ->
        ( f,
          Eval.evaluate ~ratios ~severity ~worst_fraction:f
            ~thresholds:Eval.default_thresholds ))
      fractions
  in
  let print_metric name get =
    Printf.printf "%s:\n" name;
    let table =
      Table.create
        ~header:
          ("threshold"
          :: List.map (fun f -> Printf.sprintf "worst%.0f%%" (100. *. f)) fractions)
    in
    List.iteri
      (fun k t ->
        Table.add_row table
          (Printf.sprintf "%.1f" t
          :: List.map
               (fun (_, points) -> Printf.sprintf "%.3f" (get (List.nth points k)))
               results))
      Eval.default_thresholds;
    Table.print table
  in
  print_metric "accuracy (fig20)" (fun p -> p.Eval.accuracy);
  print_metric "recall (fig21)" (fun p -> p.Eval.recall);
  let total_edges = Matrix.edge_count ratios in
  let alerts_06 = Array.length (Alert.alerted ~ratios ~threshold:0.6) in
  Report.measured "threshold 0.6 alerts %.1f%% of all edges (%d / %d)"
    (100. *. float_of_int alerts_06 /. float_of_int total_edges)
    alerts_06 total_edges

(* Figures 22 and 23 share one dynamic-neighbor run; snapshot both the
   neighbor-edge severities and the selection penalties at the paper's
   iteration counts. *)
type dyn_snapshot = {
  iteration : int;
  neighbor_severities : float array;
  penalties : float array;
}

let dyn_cache : (int, dyn_snapshot list) Hashtbl.t = Hashtbl.create 4

let dynamic_run ctx =
  match Hashtbl.find_opt dyn_cache ctx.Context.seed with
  | Some s -> s
  | None ->
    let m = Context.matrix ctx in
    let severity = Context.severity ctx in
    let system = System.create (Context.rng ctx 22) m in
    let neighbor_severities () =
      let out = ref [] in
      List.iter
        (fun (i, j) ->
          if Matrix.known severity i j then
            out := Matrix.get severity i j :: !out)
        (System.neighbor_edges system);
      Array.of_list !out
    in
    let penalties () =
      (Experiment.run_predictor (Context.rng ctx 23) m ~runs:3
         ~candidate_count:(Context.candidate_count ctx)
         ~predict:(System.predicted system) ())
        .Experiment.penalties
    in
    let snapshots = ref [] in
    (* Iteration 0 = the original random neighbor sets, after the same
       warm-up embedding the paper gives them. *)
    System.run system ~rounds:100;
    snapshots :=
      [
        {
          iteration = 0;
          neighbor_severities = neighbor_severities ();
          penalties = penalties ();
        };
      ];
    let schedule =
      { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 10 }
    in
    Dynamic_neighbors.run
      ~on_iteration:(fun k _ ->
        if List.mem k [ 1; 2; 5; 10 ] then
          snapshots :=
            {
              iteration = k;
              neighbor_severities = neighbor_severities ();
              penalties = penalties ();
            }
            :: !snapshots)
      system schedule;
    let result = List.rev !snapshots in
    Hashtbl.replace dyn_cache ctx.Context.seed result;
    result

let label k =
  if k = 0 then "Vivaldi-original" else Printf.sprintf "Vivaldi-dyn-neigh-iter%d" k

let fig22 ctx =
  Report.section "fig22" "TIV severity of Vivaldi neighbor edges across iterations";
  Report.expectation
    "each dynamic-neighbor iteration shifts the neighbor-edge severity \
     CDF left: high-severity edges are evicted";
  let snaps = dynamic_run ctx in
  Report.value_cdf_table ~label:"severity<="
    ~thresholds:[ 0.; 0.005; 0.01; 0.05; 0.1; 0.2; 0.3; 0.5 ]
    (List.map (fun s -> (label s.iteration, s.neighbor_severities)) snaps);
  List.iter
    (fun s -> Report.summary_line (label s.iteration) s.neighbor_severities)
    snaps

let fig23 ctx =
  Report.section "fig23" "Neighbor selection of dynamic-neighbor Vivaldi";
  Report.expectation
    "selection penalty CDF improves with iterations; iter10 clearly beats \
     original Vivaldi";
  let snaps = dynamic_run ctx in
  Report.penalty_cdf_table
    (List.map (fun s -> (label s.iteration, s.penalties)) snaps)

let register () =
  Registry.register "fig19" "Severity vs prediction ratio" fig19;
  Registry.register "fig20-21" "Alert accuracy & recall" fig20_21;
  Registry.register "fig22" "Dynamic-neighbor severity CDFs" fig22;
  Registry.register "fig23" "Dynamic-neighbor selection quality" fig23
