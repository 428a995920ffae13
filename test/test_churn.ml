(* Node churn: schedules, engine integration, and protocol liveness.

   The churn model's contract is that up/down state at time T is a pure
   function of (seed, node, T) — however the clock got there — and that
   a node inside its down window never answers a probe, while the
   protocols above degrade (count failures) instead of hanging. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Online = Tivaware_meridian.Online
module Sim = Tivaware_eventsim.Sim
module Selectors = Tivaware_core.Selectors
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Probe_stats = Tivaware_measure.Probe_stats
module Backend = Tivaware_backend.Delay_backend

let n = 60

let matrix =
  lazy (Datasets.generate ~size:n ~seed:2007 Datasets.Ds2).Generator.matrix

let engine ?(churn = Churn.default) ?dynamics ?(charge_time = false) ~seed () =
  Engine.of_matrix
    ~config:
      {
        Engine.fault = Fault.default;
        profile = None;
        churn = Some churn;
        dynamics;
        budget = None;
        cache_ttl = None;
        cache_capacity = None;
        charge_time;
        seed;
      }
    (Lazy.force matrix)

(* ------------------------------------------------------------------ *)
(* Schedule determinism                                                *)

let test_schedule_path_independent () =
  (* One jump to T and many small steps to T give identical states. *)
  let config = { Churn.default with Churn.fraction = 0.5; seed = 5 } in
  let jump = Churn.create ~config ~n () in
  let steps = Churn.create ~config ~n () in
  let fault = Fault.create (Rng.create 0) ~n in
  Churn.drive jump fault ~time:300.;
  let t = ref 0. in
  while !t < 300. do
    t := !t +. 0.7;
    Churn.drive steps fault ~time:(Float.min !t 300.)
  done;
  Alcotest.(check int)
    "same transition count" (Churn.transitions jump)
    (Churn.transitions steps);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d state agrees" i)
      (Churn.is_up jump i) (Churn.is_up steps i)
  done

let test_churning_subset () =
  let config = { Churn.default with Churn.fraction = 0.4; seed = 9 } in
  let c = Churn.create ~config ~n () in
  let fault = Fault.create (Rng.create 0) ~n in
  let churning = ref 0 in
  for i = 0 to n - 1 do
    if Churn.churning c i then incr churning
    else begin
      (* Non-churning nodes never leave the up state. *)
      Churn.drive c fault ~time:1000.;
      Alcotest.(check bool)
        (Printf.sprintf "stable node %d stays up" i)
        true (Churn.is_up c i)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "churning count near fraction (%d/%d)" !churning n)
    true
    (!churning > n / 10 && !churning < (7 * n) / 10);
  (* All nodes start up. *)
  let fresh = Churn.create ~config ~n () in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "starts up" true (Churn.is_up fresh i)
  done

let test_validate_config () =
  let expect msg config =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Churn.create ~config ~n ()))
  in
  expect "Churn.create: churn fraction must be in [0, 1] (got 1.5)"
    { Churn.default with Churn.fraction = 1.5 };
  expect "Churn.create: churn fraction must be in [0, 1] (got nan)"
    { Churn.default with Churn.fraction = Float.nan };
  expect "Churn.create: churn mean_up must be > 0 s (got 0)"
    { Churn.default with Churn.mean_up = 0. };
  expect "Churn.create: churn mean_down must be > 0 s (got -3)"
    { Churn.default with Churn.mean_down = -3. }

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)

(* Advance the engine clock until some churning node is down; return it. *)
let find_down_node e =
  let churn = Option.get (Engine.churn e) in
  let rec search t =
    if t > 10_000. then Alcotest.fail "no node ever went down"
    else begin
      Engine.advance_to e t;
      let down = ref None in
      for i = n - 1 downto 0 do
        if Churn.churning churn i && not (Churn.is_up churn i) then
          down := Some i
      done;
      match !down with Some i -> i | None -> search (t +. 5.)
    end
  in
  search 5.

let test_down_node_never_answers () =
  let e =
    engine ~churn:{ Churn.default with Churn.fraction = 0.5; seed = 3 } ~seed:1 ()
  in
  let i = find_down_node e in
  let peer = if i = 0 then 1 else 0 in
  (* Both directions fail while the outage window lasts: a down node
     neither answers nor (in this model) issues probes. *)
  (match Engine.probe e peer i with
  | Engine.Down -> ()
  | _ -> Alcotest.fail "probe toward a down node must fail");
  (match Engine.probe e i peer with
  | Engine.Down -> ()
  | _ -> Alcotest.fail "probe from a down node must fail");
  Alcotest.(check bool) "down outcomes counted" true
    ((Engine.stats e).Probe_stats.down >= 2);
  (* Wait out the down window: the node answers again. *)
  let churn = Option.get (Engine.churn e) in
  let t = ref (Engine.now e) in
  while not (Churn.is_up churn i) && !t < 20_000. do
    t := !t +. 1.;
    Engine.advance_to e !t
  done;
  Alcotest.(check bool) "node came back" true (Churn.is_up churn i);
  match Engine.probe e peer i with
  | Engine.Rtt _ | Engine.Unmeasured -> ()
  | _ -> Alcotest.fail "recovered node must answer again"

let test_monotone_clock_under_churn () =
  let e =
    engine
      ~churn:{ Churn.default with Churn.fraction = 0.3; seed = 7 }
      ~charge_time:true ~seed:2 ()
  in
  let wl = Rng.create 11 in
  let last = ref (Engine.now e) in
  for _ = 1 to 400 do
    ignore (Engine.rtt e (Rng.int wl n) (Rng.int wl n));
    let now = Engine.now e in
    Alcotest.(check bool) "clock never goes backwards" true (now >= !last);
    last := now
  done;
  Alcotest.(check bool) "charged workload advanced the clock" true (!last > 0.)

let test_meridian_completes_under_churn () =
  (* Online queries through a churning engine terminate (degraded, not
     hung) and the overall run still answers most queries. *)
  let m = Lazy.force matrix in
  let e =
    engine
      ~churn:{ Churn.default with Churn.fraction = 0.3; mean_down = 30.; seed = 13 }
      ~charge_time:true ~seed:3 ()
  in
  let sim = Sim.create () in
  Online.attach sim e;
  let nodes = Rng.sample_indices (Rng.create 17) ~n ~k:20 in
  let overlay =
    Overlay.build (Rng.create 19) (Backend.dense m) (Ring.unlimited_config n)
      ~meridian_nodes:nodes
  in
  let pick = Rng.create 23 in
  let answered = ref 0 and total = ref 0 in
  for _ = 1 to 60 do
    let client = Rng.int pick n in
    let start = nodes.(Rng.int pick (Array.length nodes)) in
    let target = Rng.int pick n in
    if
      (not (Overlay.is_meridian overlay target))
      && client <> start
      && not (Matrix.is_missing m client start)
    then begin
      incr total;
      let o = Online.closest sim overlay e ~client ~start ~target in
      (* Completion, not success: a query hit by churn returns a nan
         delay instead of looping. *)
      if not (Float.is_nan o.Online.query.Query.chosen_delay) then
        incr answered
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most queries answered (%d/%d)" !answered !total)
    true
    (!total > 20 && float_of_int !answered >= 0.5 *. float_of_int !total);
  Alcotest.(check bool) "some probes hit down nodes" true
    ((Engine.stats e).Probe_stats.down > 0)

let () =
  Alcotest.run "churn"
    [
      ( "schedule",
        [
          Alcotest.test_case "path independence" `Quick
            test_schedule_path_independent;
          Alcotest.test_case "churning subset" `Quick test_churning_subset;
          Alcotest.test_case "config validation" `Quick test_validate_config;
        ] );
      ( "engine",
        [
          Alcotest.test_case "down node never answers" `Quick
            test_down_node_never_answers;
          Alcotest.test_case "monotone clock" `Quick
            test_monotone_clock_under_churn;
          Alcotest.test_case "meridian completes" `Quick
            test_meridian_completes_under_churn;
        ] );
    ]
