(* Tests for the Vivaldi network coordinate system. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Vec = Tivaware_util.Vec
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module System = Tivaware_vivaldi.System
module Trace = Tivaware_vivaldi.Trace
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Alert = Tivaware_tiv.Alert

let checkf_loose eps = Alcotest.check (Alcotest.float eps)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:200.

(* Relative embedding errors over a fixed sample of pairs. *)
let relative_errors s = System.sampled_relative_errors s (Rng.create 0) ~pairs:2000

let test_create_shape () =
  let m = euclidean_matrix 1 30 in
  let s = System.create (Rng.create 2) m in
  Alcotest.(check int) "size" 30 (System.size s);
  Alcotest.(check int) "coordinate dim" 5 (Array.length (System.coord s 0));
  Alcotest.(check int) "neighbor count clamped to n-1"
    (min System.default_config.System.neighbors_per_node 29)
    (Array.length (System.neighbors s 0));
  Alcotest.(check bool) "no self neighbor" false
    (Array.exists (( = ) 0) (System.neighbors s 0));
  Alcotest.(check (float 0.)) "initial error estimate" 1. (System.error_estimate s 0)

let test_neighbors_fewer_than_nodes () =
  (* 5 nodes but 32 requested: neighbor sets must hold the other 4. *)
  let m = euclidean_matrix 3 5 in
  let s = System.create (Rng.create 4) m in
  Alcotest.(check int) "clamped neighbor count" 4 (Array.length (System.neighbors s 0))

let test_two_node_convergence () =
  (* Two nodes at delay 50 must converge to predicted distance 50. *)
  let m = Matrix.create 2 in
  Matrix.set m 0 1 50.;
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let s = System.create ~config (Rng.create 5) m in
  System.run s ~rounds:500;
  checkf_loose 2. "converged distance" 50. (System.predicted s 0 1)

let test_euclidean_convergence () =
  (* A genuinely Euclidean delay space embeds with low error. *)
  let m = euclidean_matrix 6 40 in
  let s = System.create (Rng.create 7) m in
  System.run s ~rounds:400;
  let rel = relative_errors s in
  Alcotest.(check bool) "median relative error under 12%" true
    (Stats.median rel < 0.12)

let test_error_estimate_decreases () =
  let m = euclidean_matrix 8 30 in
  let s = System.create (Rng.create 9) m in
  System.run s ~rounds:300;
  let final_err =
    Stats.mean (Array.init 30 (fun i -> System.error_estimate s i))
  in
  Alcotest.(check bool) "confidence improved from 1.0" true (final_err < 0.5)

let test_observe_missing_noop () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 10.;
  (* edge 0-2 missing *)
  let config = { System.default_config with System.neighbors_per_node = 2 } in
  let s = System.create ~config (Rng.create 10) m in
  let before = System.coord s 0 in
  System.observe_rtt s 0 2 (Matrix.get m 0 2);
  Alcotest.(check (array (float 0.))) "no movement on missing measurement" before
    (System.coord s 0)

let test_observe_moves_toward_target () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 100.;
  let config =
    { System.default_config with System.neighbors_per_node = 1;
      System.timestep = System.Constant 0.5 }
  in
  let s = System.create ~config (Rng.create 11) m in
  let err_before = abs_float (System.predicted s 0 1 -. 100.) in
  System.observe_rtt s 0 1 (Matrix.get m 0 1);
  let err_after = abs_float (System.predicted s 0 1 -. 100.) in
  Alcotest.(check bool) "error shrank" true (err_after < err_before)

let test_set_neighbors_validation () =
  let m = euclidean_matrix 12 10 in
  let s = System.create (Rng.create 13) m in
  Alcotest.check_raises "self loop"
    (Invalid_argument "System.set_neighbors: self-loop") (fun () ->
      System.set_neighbors s 3 [| 3 |]);
  System.set_neighbors s 3 [| 1; 2 |];
  Alcotest.(check (array int)) "updated" [| 1; 2 |] (System.neighbors s 3)

let test_neighbor_edges_dedupe () =
  let m = euclidean_matrix 14 4 in
  let s = System.create (Rng.create 15) m in
  System.set_neighbors s 0 [| 1 |];
  System.set_neighbors s 1 [| 0 |];
  System.set_neighbors s 2 [| 0 |];
  System.set_neighbors s 3 [| 0 |];
  let edges = List.sort compare (System.neighbor_edges s) in
  Alcotest.(check (list (pair int int))) "deduplicated normalized edges"
    [ (0, 1); (0, 2); (0, 3) ] edges

(* Each round lasts one virtual second on an oracle engine. *)
let test_rounds_elapsed () =
  let m = euclidean_matrix 18 10 in
  let s = System.create (Rng.create 19) m in
  System.run s ~rounds:7;
  Alcotest.(check (float 0.)) "rounds counted" 7.
    (Tivaware_measure.Engine.now (System.engine s))

(* A system's prediction ratio, probed through its own engine. *)
let probed_ratio s i j =
  Alert.probed_ratio ~label:"test" ~engine:(System.engine s)
    ~predicted:(System.predictor s) i j

let test_system_ratio () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 10.;
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let s = System.create ~config (Rng.create 20) m in
  let r = probed_ratio s 0 1 in
  checkf_loose 1e-9 "ratio = predicted/measured" (System.predicted s 0 1 /. 10.) r;
  Alcotest.(check bool) "missing edge ratio is nan" true
    (Float.is_nan (probed_ratio s 0 2))

(* ------------------------------------------------------------------ *)
(* Height vectors                                                      *)

let test_height_config_convergence () =
  (* Heights model access links: a star topology (hub + leaves all far
     from each other but equally near the hub) embeds better with
     heights than plain 2-D coordinates. *)
  let n = 12 in
  let m =
    Matrix.init n (fun i j ->
        if i = 0 || j = 0 then 50. (* leaf <-> hub *)
        else 100. (* leaf <-> leaf via hub *))
  in
  let run height =
    let config =
      { System.default_config with System.dim = 2; height; neighbors_per_node = n - 1 }
    in
    let s = System.create ~config (Rng.create 40) m in
    System.run s ~rounds:400;
    Stats.median (relative_errors s)
  in
  let err_flat = run false and err_height = run true in
  Alcotest.(check bool)
    (Printf.sprintf "heights help on star topology (%.3f vs %.3f)" err_height err_flat)
    true
    (err_height < err_flat +. 0.02)

let test_height_nonnegative () =
  let m = euclidean_matrix 41 20 in
  let config = { System.default_config with System.height = true } in
  let s = System.create ~config (Rng.create 42) m in
  System.run s ~rounds:100;
  for i = 0 to 19 do
    let c = System.coord s i in
    Alcotest.(check bool) "height slot stays positive" true
      (c.(System.default_config.System.dim) > 0.)
  done

let test_height_distance_definition () =
  let m = euclidean_matrix 43 10 in
  let config = { System.default_config with System.dim = 3; height = true } in
  let s = System.create ~config (Rng.create 44) m in
  let ci = System.coord s 0 and cj = System.coord s 1 in
  let eu = ref 0. in
  for d = 0 to 2 do
    let diff = ci.(d) -. cj.(d) in
    eu := !eu +. (diff *. diff)
  done;
  checkf_loose 1e-9 "predicted = euclid + h_i + h_j"
    (sqrt !eu +. ci.(3) +. cj.(3))
    (System.predicted s 0 1)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_error_traces_shape () =
  let m = euclidean_matrix 21 10 in
  let s = System.create (Rng.create 22) m in
  let traces = Trace.error_traces s ~edges:[ (0, 1); (2, 3) ] ~rounds:25 in
  Alcotest.(check int) "one trace per edge" 2 (List.length traces);
  List.iter
    (fun t -> Alcotest.(check int) "trace length" 25 (Array.length t.Trace.errors))
    traces

let test_oscillation_shape () =
  let m = euclidean_matrix 23 15 in
  let s = System.create (Rng.create 24) m in
  System.run s ~rounds:50;
  let osc = Trace.oscillation s ~rounds:20 in
  Alcotest.(check int) "one range per edge" (Matrix.edge_count m)
    (Array.length osc.Trace.ranges);
  Array.iter
    (fun r -> Alcotest.(check bool) "ranges non-negative" true (r >= 0.))
    osc.Trace.ranges

let test_oscillation_small_on_converged_euclidean () =
  let m = euclidean_matrix 25 25 in
  let s = System.create (Rng.create 26) m in
  System.run s ~rounds:500;
  let osc = Trace.oscillation s ~rounds:50 in
  Alcotest.(check bool) "median oscillation modest on metric data" true
    (Stats.median osc.Trace.ranges < 40.)

let test_steady_state_stats () =
  let m = euclidean_matrix 27 20 in
  let s = System.create (Rng.create 28) m in
  System.run s ~rounds:100;
  let st = Trace.steady_state_stats s ~rounds:10 in
  Alcotest.(check bool) "median <= p90 (error)" true
    (st.Trace.median_abs_error <= st.Trace.p90_abs_error);
  Alcotest.(check bool) "median <= p90 (movement)" true
    (st.Trace.median_movement <= st.Trace.p90_movement);
  Alcotest.(check bool) "all non-negative" true
    (st.Trace.median_abs_error >= 0. && st.Trace.median_movement >= 0.)

(* ------------------------------------------------------------------ *)
(* Protocol (event-driven)                                             *)

module Protocol = Tivaware_vivaldi.Protocol
module Sim = Tivaware_eventsim.Sim

let test_protocol_probe_accounting () =
  let m = euclidean_matrix 50 20 in
  let s = System.create (Rng.create 51) m in
  let sim = Sim.create () in
  let stats = Protocol.run sim s ~duration:10. in
  (* ~20 nodes x ~10 probes each. *)
  Alcotest.(check bool)
    (Printf.sprintf "sent %d probes" stats.Protocol.probes_sent)
    true
    (stats.Protocol.probes_sent > 100 && stats.Protocol.probes_sent < 300);
  Alcotest.(check bool) "nearly all completed" true
    (stats.Protocol.probes_completed >= stats.Protocol.probes_sent - 25);
  Alcotest.(check bool) "clock at deadline" true (Sim.now sim >= 10.)

let test_protocol_converges () =
  let m = euclidean_matrix 52 30 in
  let s = System.create (Rng.create 53) m in
  let sim = Sim.create () in
  ignore (Protocol.run sim s ~duration:400.);
  let rel = relative_errors s in
  Alcotest.(check bool)
    (Printf.sprintf "median rel error %.3f" (Stats.median rel))
    true
    (Stats.median rel < 0.15)

module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Probe_stats = Tivaware_measure.Probe_stats

let churn_engine ?(outage = 0.) ?(seed = 0) churn m =
  Engine.of_matrix
    ~config:
      {
        Engine.default_config with
        fault = { Fault.default with Fault.outage };
        churn = Some churn;
        seed;
      }
    m

let test_protocol_churn_still_useful () =
  (* Even with churn, coordinates of surviving nodes should be usable
     (errors bounded), demonstrating Vivaldi's self-healing. *)
  let m = euclidean_matrix 58 30 in
  let churn = { Churn.default with Churn.fraction = 1.; mean_up = 120. } in
  let s = System.create_with_engine (Rng.create 59) (churn_engine churn m) in
  let sim = Sim.create () in
  ignore (Protocol.run sim s ~duration:400.);
  let rel = relative_errors s in
  Alcotest.(check bool)
    (Printf.sprintf "median rel error %.3f under churn" (Stats.median rel))
    true
    (Stats.median rel < 0.35)

let test_protocol_churn_accounting () =
  let m = euclidean_matrix 56 25 in
  let churn =
    { Churn.fraction = 1.; mean_up = 20.; mean_down = 5.; seed = 57 }
  in
  let e = churn_engine churn m in
  let s = System.create_with_engine (Rng.create 57) e in
  let sim = Sim.create () in
  let stats = Protocol.run sim s ~duration:100. in
  let c = Option.get (Engine.churn e) in
  Alcotest.(check bool) "failures happened" true (Churn.transitions c > 0);
  let down_now = ref 0 in
  for i = 0 to Engine.size e - 1 do
    if not (Engine.up e i) then incr down_now
  done;
  (* Every node starts up, so toggles beyond the currently-down count
     are down spells that ended. *)
  Alcotest.(check bool) "rejoins happened" true
    (Churn.transitions c > !down_now);
  Alcotest.(check bool) "some probes lost to churn" true
    (stats.Protocol.probes_lost > 0);
  Alcotest.(check bool) "accounting bounded" true
    (stats.Protocol.probes_completed + stats.Protocol.probes_lost
    <= stats.Protocol.probes_sent)

(* The engine's churn schedule is the only writer of node outages: a
   run under churn leaves every churning node's injector state equal
   to its schedule, and every node the static outage draw put down is
   still down — a second up/down model beside the engine's would
   revive those. *)
let prop_protocol_one_liveness_source =
  let open QCheck2.Gen in
  let gen =
    let* fraction = oneof [ pure 0.; float_range 0.25 1. ] in
    let* mean_up = float_range 1. 20. in
    let* mean_down = float_range 0.5 20. in
    let* churn_seed = int_range 0 10_000 in
    let* outage = float_range 0. 0.5 in
    let+ seed = int_range 0 10_000 in
    ({ Churn.fraction; mean_up; mean_down; seed = churn_seed }, outage, seed)
  in
  let print (c, outage, seed) =
    Printf.sprintf
      "fraction=%g mean_up=%g mean_down=%g churn_seed=%d outage=%g seed=%d"
      c.Churn.fraction c.Churn.mean_up c.Churn.mean_down c.Churn.seed outage seed
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"one liveness source" ~print gen
       (fun (churn, outage, seed) ->
         let n = 40 in
         let e = churn_engine ~outage ~seed churn (euclidean_matrix seed n) in
         let c = Option.get (Engine.churn e) and fault = Engine.fault e in
         let down_before = Array.init n (Fault.node_down fault) in
         let s = System.create_with_engine (Rng.create seed) e in
         let st = Protocol.run (Sim.create ()) s ~duration:60. in
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         for i = 0 to n - 1 do
           let down = Fault.node_down fault i in
           if Churn.churning c i then begin
             if down <> not (Engine.up e i) then
               fail "churning node %d: injector down=%b, engine up=%b" i down
                 (Engine.up e i)
           end
           else if down <> down_before.(i) then
             fail "node %d outside the churn: down %b before the run, %b after" i
               down_before.(i) down
         done;
         let { Protocol.probes_sent; probes_completed; probes_lost } = st in
         if probes_completed + probes_lost > probes_sent then
           fail "completed %d + lost %d > sent %d" probes_completed probes_lost
             probes_sent;
         if churn.Churn.fraction > 0. && Churn.transitions c = 0 then
           fail "fraction %g but no transition" churn.Churn.fraction;
         true))

let test_protocol_reset_node () =
  let m = euclidean_matrix 60 10 in
  let s = System.create (Rng.create 61) m in
  System.run s ~rounds:200;
  let before = System.error_estimate s 3 in
  Alcotest.(check bool) "converged confidence" true (before < 0.9);
  System.reset_node s 3;
  Alcotest.(check (float 0.)) "error reset" 1. (System.error_estimate s 3);
  Alcotest.(check bool) "coordinate re-randomized near origin" true
    (Tivaware_util.Vec.dist (System.coord s 3) (Tivaware_util.Vec.zero 5) < 3.)

let test_protocol_resumable () =
  let m = euclidean_matrix 54 15 in
  let s = System.create (Rng.create 55) m in
  let sim = Sim.create () in
  let a = Protocol.run sim s ~duration:5. in
  let t1 = Sim.now sim in
  let b = Protocol.run sim s ~duration:5. in
  Alcotest.(check bool) "clock advanced again" true (Sim.now sim >= t1 +. 5. -. 1e-9);
  Alcotest.(check bool) "both phases probed" true
    (a.Protocol.probes_sent > 0 && b.Protocol.probes_sent > 0)

(* ------------------------------------------------------------------ *)
(* Dynamic neighbors                                                   *)

let tiv_matrix seed n =
  (Tivaware_topology.Datasets.generate ~size:n ~seed Tivaware_topology.Datasets.Ds2)
    .Tivaware_topology.Generator.matrix

(* One neighbor refresh with no embedding rounds before it. *)
let refresh s =
  Dynamic_neighbors.run s
    { Dynamic_neighbors.rounds_per_iteration = 0; iterations = 1 }

let test_refresh_preserves_count () =
  let m = tiv_matrix 29 60 in
  let s = System.create (Rng.create 30) m in
  System.run s ~rounds:50;
  let before = Array.length (System.neighbors s 0) in
  refresh s;
  Alcotest.(check int) "count preserved" before (Array.length (System.neighbors s 0));
  Alcotest.(check bool) "no self neighbor" false
    (Array.exists (( = ) 0) (System.neighbors s 0))

let test_refresh_drops_shrunk () =
  (* The refresh must keep the highest-prediction-ratio candidates. *)
  let m = tiv_matrix 31 60 in
  let s = System.create (Rng.create 32) m in
  System.run s ~rounds:100;
  refresh s;
  (* After refresh, a node's kept neighbors should not include edges with
     dramatically smaller ratio than the median of its candidates. *)
  let ratios =
    Array.to_list (System.neighbors s 5)
    |> List.filter_map (fun j ->
           let r = probed_ratio s 5 j in
           if Float.is_nan r then None else Some r)
  in
  let sorted = List.sort compare ratios in
  (match sorted with
  | least :: _ ->
    Alcotest.(check bool) "kept neighbors not badly shrunk" true (least > 0.2)
  | [] -> Alcotest.fail "no measurable neighbors")

(* The refresh ranks candidates by probes it pays for: on an oracle
   engine one pass probes every pool member once under
   "vivaldi-neighbors", and under total loss it learns nothing, so no
   neighbor set moves. *)
let test_refresh_probes_through_engine () =
  let n = 100 and want = 8 in
  let m = euclidean_matrix 41 n in
  let config = { System.default_config with System.neighbors_per_node = want } in
  let s = System.create ~config (Rng.create 42) m in
  System.run s ~rounds:20;
  let engine = System.engine s in
  let count () =
    Probe_stats.label_count (Engine.stats engine) "vivaldi-neighbors"
  in
  Alcotest.(check int) "no refresh probes before a refresh" 0 (count ());
  refresh s;
  Alcotest.(check int) "one probe per pool member" (n * 2 * want) (count ());
  let lossy =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          fault = { Fault.default with Fault.loss = 0.999999 };
        }
      m
  in
  let s = System.create_with_engine ~config (Rng.create 43) lossy in
  let before = Array.init n (System.neighbors s) in
  refresh s;
  Array.iteri
    (fun i ns ->
      Alcotest.(check (array int))
        (Printf.sprintf "node %d keeps its neighbors" i)
        ns (System.neighbors s i))
    before;
  Alcotest.(check int) "lost probes still counted" (n * 2 * want)
    (Probe_stats.label_count (Engine.stats lossy) "vivaldi-neighbors")

let test_run_schedule () =
  let m = tiv_matrix 33 50 in
  let s = System.create (Rng.create 34) m in
  let iterations = ref [] in
  Dynamic_neighbors.run
    ~on_iteration:(fun k _ -> iterations := k :: !iterations)
    s
    { Dynamic_neighbors.rounds_per_iteration = 10; iterations = 4 };
  Alcotest.(check (list int)) "callbacks in order" [ 1; 2; 3; 4 ] (List.rev !iterations);
  Alcotest.(check (float 0.)) "rounds accumulated" 40. (Engine.now (System.engine s))

let test_dynamic_reduces_neighbor_severity () =
  let m = tiv_matrix 35 80 in
  let severity = Tivaware_tiv.Severity.all m in
  let mean_neighbor_severity s =
    let vals = ref [] in
    List.iter
      (fun (i, j) ->
        if Matrix.known severity i j then vals := Matrix.get severity i j :: !vals)
      (System.neighbor_edges s);
    Stats.mean (Array.of_list !vals)
  in
  let s = System.create (Rng.create 36) m in
  System.run s ~rounds:100;
  let before = mean_neighbor_severity s in
  Dynamic_neighbors.run s { Dynamic_neighbors.rounds_per_iteration = 60; iterations = 5 };
  let after = mean_neighbor_severity s in
  Alcotest.(check bool)
    (Printf.sprintf "severity reduced (%.4f -> %.4f)" before after)
    true (after < before)

let () =
  Alcotest.run "vivaldi"
    [
      ( "system",
        [
          Alcotest.test_case "create shape" `Quick test_create_shape;
          Alcotest.test_case "clamped neighbors" `Quick test_neighbors_fewer_than_nodes;
          Alcotest.test_case "two-node convergence" `Quick test_two_node_convergence;
          Alcotest.test_case "euclidean convergence" `Quick test_euclidean_convergence;
          Alcotest.test_case "error estimate decreases" `Quick test_error_estimate_decreases;
          Alcotest.test_case "missing measurement noop" `Quick test_observe_missing_noop;
          Alcotest.test_case "observe moves toward target" `Quick test_observe_moves_toward_target;
          Alcotest.test_case "set_neighbors validation" `Quick test_set_neighbors_validation;
          Alcotest.test_case "neighbor_edges dedupe" `Quick test_neighbor_edges_dedupe;
          Alcotest.test_case "rounds elapsed" `Quick test_rounds_elapsed;
          Alcotest.test_case "prediction ratio" `Quick test_system_ratio;
        ] );
      ( "height",
        [
          Alcotest.test_case "star topology benefit" `Slow test_height_config_convergence;
          Alcotest.test_case "non-negative heights" `Quick test_height_nonnegative;
          Alcotest.test_case "distance definition" `Quick test_height_distance_definition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "error traces shape" `Quick test_error_traces_shape;
          Alcotest.test_case "oscillation shape" `Quick test_oscillation_shape;
          Alcotest.test_case "oscillation small on euclidean" `Quick
            test_oscillation_small_on_converged_euclidean;
          Alcotest.test_case "steady state stats" `Quick test_steady_state_stats;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "probe accounting" `Quick test_protocol_probe_accounting;
          Alcotest.test_case "converges" `Quick test_protocol_converges;
          Alcotest.test_case "churn accounting" `Quick test_protocol_churn_accounting;
          Alcotest.test_case "useful under churn" `Quick test_protocol_churn_still_useful;
          prop_protocol_one_liveness_source;
          Alcotest.test_case "reset node" `Quick test_protocol_reset_node;
          Alcotest.test_case "resumable" `Quick test_protocol_resumable;
        ] );
      ( "dynamic_neighbors",
        [
          Alcotest.test_case "refresh preserves count" `Quick test_refresh_preserves_count;
          Alcotest.test_case "refresh drops shrunk edges" `Quick test_refresh_drops_shrunk;
          Alcotest.test_case "refresh probes through the engine" `Quick
            test_refresh_probes_through_engine;
          Alcotest.test_case "run schedule" `Quick test_run_schedule;
          Alcotest.test_case "reduces neighbor severity" `Quick
            test_dynamic_reduces_neighbor_severity;
        ] );
    ]
