(* Property layer for the consistent-hashing object ring and its
   replica-selection policies.

   The contracts under test (see DESIGN.md, "Replica placement"):

   - Ring structure: every partition holds [replicas] distinct
     devices; with at least as many (weight-balanced) zones as
     replicas, the replicas land in distinct zones; the handoff walk
     never repeats a primary, never repeats itself, covers every other
     live device, and visits the partition's missing zones first.
   - Balance: each device's slot count tracks its weight-proportional
     desired share within a small tolerance.
   - Minimal movement: adding a device moves at most its rounded fair
     share of slots, all of them toward the newcomer; removing one
     reassigns exactly the slots it held.
   - Determinism: the whole ring is a pure function of
     (seed, part_power, replicas, specs); a scenario run is a pure
     function of its seeds.
   - Policies: under a triangle-inequality delay space with an exact
     predictor, all four policies pick the same replica; the
     alert-aware policy never picks a flagged (likely-TIV) replica
     while a clean one is available; [select] is the first strict
     argmin of [rank] (alert: the first clean candidate in predicted
     order), and a choice's [probes] equals the engine calls it made.
   - Validation: bad workload parameters raise [Invalid_argument]
     naming the offending field.
   - Accounting: store reads and stream deadlines are counted once,
     in the engine's registry, and the result views keep the
     scenarios' identities.

   Reads TIVAWARE_PROP_SEED so the CI matrix (seeds 13-15) re-runs
   everything under distinct seeds. *)

module Rng = Tivaware_util.Rng
module Zipf = Tivaware_util.Zipf
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Engine = Tivaware_measure.Engine
module Probe_stats = Tivaware_measure.Probe_stats
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Backend = Tivaware_backend.Delay_backend
module Ring = Tivaware_store.Ring
module Alert = Tivaware_tiv.Alert
module Selection = Tivaware_tiv.Selection
module Scenario = Tivaware_store.Scenario
module Swarm = Tivaware_stream.Swarm
module Obs = Tivaware_obs

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let qcheck ?print ~count ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?print ~count ~name gen prop)

(* Zone-balanced ring configurations: [zones >= replicas] and every
   zone carries the same weight multiset, the regime in which both the
   dispersion and the balance contracts are exact (a deployment with
   wildly unequal zones cannot satisfy both at once).  Derived
   deterministically from one integer so qcheck shrinks cleanly. *)
let ring_of_case case =
  let r = Rng.create ((prop_seed * 1_000_003) + case) in
  let replicas = 2 + Rng.int r 3 in
  let zones = replicas + Rng.int r 3 in
  let per_zone = 2 + Rng.int r 3 in
  let part_power = 4 + Rng.int r 3 in
  let pattern = Array.init per_zone (fun _ -> float_of_int (1 + Rng.int r 4)) in
  let specs =
    Array.init (zones * per_zone) (fun i ->
        { Ring.node = i; zone = i / per_zone; weight = pattern.(i mod per_zone) })
  in
  let seed = 1 + Rng.int r 100_000 in
  (Ring.create ~seed ~part_power ~replicas specs, specs, seed, part_power, replicas)

let gen_case = QCheck2.Gen.int_range 0 9999

let test_partitions_distinct =
  qcheck ~count:40 ~name:"every partition holds [replicas] distinct devices"
    gen_case (fun case ->
      let ring, _, _, _, replicas = ring_of_case case in
      let ok = ref true in
      for p = 0 to Ring.parts ring - 1 do
        let a = Ring.assignment ring p in
        if Array.length a <> replicas then ok := false;
        Array.iteri
          (fun i id ->
            if Ring.device ring id = None then ok := false;
            Array.iteri (fun j id' -> if i < j && id = id' then ok := false) a)
          a
      done;
      !ok)

let test_zone_dispersion =
  qcheck ~count:40 ~name:"replicas land in distinct zones (balanced zones)"
    gen_case (fun case ->
      let ring, specs, _, _, replicas = ring_of_case case in
      let zone id = (Option.get (Ring.device ring id)).Ring.zone in
      ignore specs;
      let ok = ref true in
      for p = 0 to Ring.parts ring - 1 do
        let zs = Array.map zone (Ring.assignment ring p) in
        let distinct =
          Array.length zs = replicas
          && Array.for_all
               (fun z -> Array.fold_left (fun k z' -> if z = z' then k + 1 else k) 0 zs = 1)
               zs
        in
        if not distinct then ok := false
      done;
      !ok)

let test_handoff =
  qcheck ~count:40 ~name:"handoff never repeats a primary, covers everyone, missing zones first"
    gen_case (fun case ->
      let ring, _, _, _, replicas = ring_of_case case in
      let zone id = (Option.get (Ring.device ring id)).Ring.zone in
      let live = Array.length (Ring.devices ring) in
      let ok = ref true in
      let check_part p =
        let primaries = Ring.assignment ring p in
        let walk = Ring.handoff ring p in
        if Array.length walk <> live - replicas then ok := false;
        Array.iter
          (fun id -> if Array.exists (( = ) id) primaries then ok := false)
          walk;
        Array.iteri
          (fun i id -> Array.iteri (fun j id' -> if i < j && id = id' then ok := false) walk)
          walk;
        (* Missing zones are restored by the walk's prefix. *)
        let primary_zones = Array.map zone primaries in
        let missing =
          List.sort_uniq compare
            (List.filter
               (fun z -> not (Array.exists (( = ) z) primary_zones))
               (Array.to_list (Array.map zone walk)))
        in
        let prefix = Array.sub walk 0 (List.length missing) in
        let prefix_zones = List.sort_uniq compare (Array.to_list (Array.map zone prefix)) in
        if prefix_zones <> missing then ok := false
      in
      for p = 0 to min (Ring.parts ring - 1) 31 do
        check_part p
      done;
      !ok)

(* Slots a device holds over every partition. *)
let assigned ring id =
  let k = ref 0 in
  for p = 0 to Ring.parts ring - 1 do
    Array.iter (fun d -> if d = id then incr k) (Ring.assignment ring p)
  done;
  !k

let test_balance =
  qcheck ~count:40 ~name:"slot counts track weight-proportional desired shares"
    gen_case (fun case ->
      let ring, _, _, _, _ = ring_of_case case in
      Array.for_all
        (fun d ->
          let id = d.Ring.id in
          let want = Ring.desired_share ring id in
          let got = float_of_int (assigned ring id) in
          abs_float (got -. want) <= Float.max 2. (0.08 *. want))
        (Ring.devices ring))

let test_determinism =
  qcheck ~count:25 ~name:"assignment is a pure function of (seed, specs)"
    gen_case (fun case ->
      let ring1, _, _, _, _ = ring_of_case case in
      let ring2, _, _, _, _ = ring_of_case case in
      let ok = ref true in
      for p = 0 to Ring.parts ring1 - 1 do
        if Ring.assignment ring1 p <> Ring.assignment ring2 p then ok := false
      done;
      !ok)

let test_partition_map_stable () =
  let ring, specs, seed, part_power, replicas = ring_of_case 42 in
  let objs = Array.init 200 (fun i -> i * 7919) in
  let before = Array.map (Ring.partition_of ring) objs in
  Array.iter
    (fun p -> checkb "in range" true (p >= 0 && p < Ring.parts ring))
    before;
  (* The same seed over a device set grown by one device. *)
  let grown =
    Ring.create ~seed ~part_power ~replicas
      (Array.append specs [| { Ring.node = 9_999; zone = 0; weight = 2. } |])
  in
  let after = Array.map (Ring.partition_of grown) objs in
  checkb "rebalance never remaps objects" true (before = after)

(* --- policies --- *)

let oracle_engine m = Engine.of_matrix m

let ti_matrix = lazy (Euclidean.uniform_box (Rng.create 6007) ~n:40 ~dim:3 ~side_ms:200.)

let test_policies_agree_under_ti =
  qcheck ~count:60 ~name:"all policies agree when the delay space satisfies the TI"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 2 8))
    (fun (salt, k) ->
      let m = Lazy.force ti_matrix in
      let r = Rng.create ((prop_seed * 31_337) + salt) in
      let nodes = Rng.sample_indices r ~n:(Matrix.size m) ~k:(k + 1) in
      let client = nodes.(0) in
      let candidates = Array.init k (fun i -> (i, nodes.(i + 1))) in
      let predicted i j = Matrix.get m i j in
      let pick policy =
        Selection.select ~label:"store" policy ~engine:(oracle_engine m) ~client ~candidates
      in
      let choices =
        [
          pick (Selection.cached ());
          pick (Selection.coordinate predicted);
          pick (Selection.probe ());
          pick (Selection.alert predicted);
        ]
      in
      match choices with
      | Some a :: rest ->
          List.for_all
            (function
              | Some c -> c.Selection.device = a.Selection.device && c.Selection.node = a.Selection.node
              | None -> false)
            rest
      | _ -> false)

let test_alert_skips_flagged =
  qcheck ~count:60 ~name:"alert never selects a flagged replica while a clean one exists"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 2 6))
    (fun (salt, clean_count) ->
      let r = Rng.create ((prop_seed * 65_537) + salt) in
      (* Node 0 is the client; candidates 1..k.  Flagged candidates
         look closest in prediction (shrunk edges) but measure far;
         clean candidates predict exactly what they measure. *)
      let flagged_count = 1 + Rng.int r 3 in
      let k = clean_count + flagged_count in
      let flagged = Array.init k (fun i -> i < flagged_count) in
      (* Flagged edges measure far (150-250 ms) but predict very near
         (x0.1, so 15-25 ms); clean edges predict exactly their 30-100
         ms measurement.  Every flagged candidate therefore sorts ahead
         of every clean one, forcing the walk to consider and skip it. *)
      let delays =
        Array.init (k + 1) (fun i ->
            if i = 0 then 0.
            else if flagged.(i - 1) then 150. +. Rng.float r 100.
            else 30. +. Rng.float r 70.)
      in
      let backend =
        Backend.of_fn ~size:(k + 1) (fun i j ->
            if i = j then 0. else delays.(max i j))
      in
      let predicted i j =
        let c = max i j - 1 in
        if min i j <> 0 || c < 0 || c >= k then nan
        else if flagged.(c) then delays.(max i j) *. 0.1
        else delays.(max i j)
      in
      let engine = Backend.engine backend in
      let candidates = Array.init k (fun i -> (i, i + 1)) in
      match
        Selection.select ~label:"store" (Selection.alert predicted) ~engine ~client:0 ~candidates
      with
      | Some c -> (not flagged.(c.Selection.device)) && c.Selection.skipped_flagged >= 1
      | None -> false)

let test_alert_all_flagged_picks_best_measured () =
  let delays = [| 0.; 120.; 80.; 150. |] in
  let backend =
    Backend.of_fn ~size:4 (fun i j -> if i = j then 0. else delays.(max i j))
  in
  let predicted i j = if min i j = 0 then delays.(max i j) *. 0.1 else nan in
  let engine = Backend.engine backend in
  let candidates = [| (0, 1); (1, 2); (2, 3) |] in
  match Selection.select ~label:"store" (Selection.alert predicted) ~engine ~client:0 ~candidates with
  | Some c ->
      checki "falls back to the best measured flagged replica" 1 c.Selection.device;
      checki "every candidate was flagged" 3 c.Selection.skipped_flagged
  | None -> Alcotest.fail "expected a fallback choice"

(* [rank] and [select] are one policy seen two ways.  Twin engines
   (same config, same seed) replay identical probe outcomes for
   identical call sequences, so [select] on one twin is checked against
   [rank] on the other.  Candidates repeat nodes (measurement ties),
   predictions are coarse (ties) or missing (nan), and the lossy twin
   loses, retries and churns. *)

let lossy_config seed =
  {
    Engine.fault = { Fault.default with Fault.loss = 0.3; retries = 1 };
    profile = None;
    churn = Some { Churn.fraction = 0.3; mean_up = 20.; mean_down = 10.; seed = seed + 1 };
    dynamics = None;
    budget = None;
    cache_ttl = None;
    cache_capacity = None;
    charge_time = true;
    seed;
  }

let first_strict_argmin estimates candidates =
  let best = ref None in
  Array.iteri
    (fun k (device, node) ->
      let e = estimates.(k) in
      if not (Float.is_nan e) then
        match !best with
        | Some (_, _, be) when be <= e -> ()
        | _ -> best := Some (device, node, e))
    candidates;
  !best

let test_rank_select_agree =
  qcheck ~count:100 ~name:"select agrees with rank (alert: first clean in predicted order)"
    QCheck2.Gen.(triple (int_range 0 9999) (int_range 0 8) bool)
    (fun (salt, k, lossy) ->
      let m = Lazy.force ti_matrix in
      let n = Matrix.size m in
      let r = Rng.create ((prop_seed * 7_919) + salt) in
      let client = Rng.int r n in
      let candidates = Array.init k (fun device -> (device, Rng.int r n)) in
      let pred =
        Array.init n (fun _ ->
            if Rng.int r 4 = 0 then nan else float_of_int (10 * (1 + Rng.int r 4)))
      in
      let predicted _ j = pred.(j) in
      let twin () =
        if lossy then Engine.of_matrix ~config:(lossy_config (1 + salt)) m
        else Engine.of_matrix m
      in
      let requests e = (Engine.stats e).Probe_stats.requests in
      let label = "store" in
      let agrees make =
        let a = twin () and b = twin () in
        let pa = make () and pb = make () in
        (* Two rounds: the second sees whatever the first cached. *)
        List.for_all
          (fun () ->
            let a0 = requests a and b0 = requests b in
            let got = Selection.select ~label pa ~engine:a ~client ~candidates in
            let rank = Selection.rank ~label pb b in
            let want =
              first_strict_argmin
                (Array.map (fun (_, node) -> rank client node) candidates)
                candidates
            in
            let probes = requests a - a0 in
            probes = requests b - b0
            &&
            match (got, want) with
            | None, None -> true
            | Some c, Some (device, node, e) ->
                c.Selection.device = device && c.Selection.node = node
                && c.Selection.estimate = e && c.Selection.probes = probes
                && c.Selection.skipped_flagged = 0
            | _ -> false)
          [ (); () ]
      in
      let alert_first_clean () =
        let a = twin () and b = twin () in
        let a0 = requests a in
        let got =
          Selection.select ~label (Selection.alert predicted) ~engine:a ~client
            ~candidates
        in
        let probes = requests a - a0 in
        let order =
          List.stable_sort
            (fun x y ->
              match (Float.is_nan pred.(snd candidates.(x)), Float.is_nan pred.(snd candidates.(y))) with
              | true, true -> 0
              | true, false -> 1
              | false, true -> -1
              | false, false -> compare pred.(snd candidates.(x)) pred.(snd candidates.(y)))
            (List.init k Fun.id)
        in
        let rec walk walked flagged = function
          | [] -> `No_clean (walked, flagged)
          | idx :: rest -> (
              let device, node = candidates.(idx) in
              match
                Alert.alert_pair ~label ~engine:b ~predicted
                  ~threshold:0.5 client node
              with
              | `Clean d -> `Clean ((device, node, d), walked + 1, flagged)
              | `Flagged _ -> walk (walked + 1) (flagged + 1) rest
              | `Unmeasurable -> walk (walked + 1) flagged rest)
        in
        match (walk 0 0 order, got) with
        | `Clean ((device, node, d), walked, flagged), Some c ->
            c.Selection.device = device && c.Selection.node = node
            && c.Selection.estimate = d && c.Selection.probes = walked
            && probes = walked && c.Selection.skipped_flagged = flagged
        | `Clean _, None -> false
        | `No_clean (walked, flagged), c -> (
            probes = walked
            &&
            match c with
            | None -> flagged = 0
            | Some c -> c.Selection.probes = walked && c.Selection.skipped_flagged = flagged)
      in
      agrees Selection.cached
      && agrees (fun () -> Selection.random ~seed:salt)
      && agrees (fun () -> Selection.coordinate predicted)
      && agrees Selection.probe
      && alert_first_clean ())

(* --- validation --- *)

let expect_invalid name substr f =
  match f () with
  | exception Invalid_argument msg ->
      checkb
        (Printf.sprintf "%s: message %S names %S" name msg substr)
        true
        (let len = String.length substr in
         let ok = ref false in
         String.iteri
           (fun i _ ->
             if i + len <= String.length msg && String.sub msg i len = substr then
               ok := true)
           msg;
         !ok)
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_validation () =
  expect_invalid "zipf n" "n must be >= 1" (fun () -> Zipf.create ~n:0 ~s:0.9);
  expect_invalid "zipf s" "s must be non-negative" (fun () ->
      Zipf.create ~n:10 ~s:(-1.));
  expect_invalid "objects" "objects" (fun () ->
      Scenario.validate_config "Store.Scenario"
        { Scenario.default_config with Scenario.objects = 0 });
  expect_invalid "replicas" "replicas" (fun () ->
      Scenario.validate_config "Store.Scenario"
        { Scenario.default_config with Scenario.replicas = 9; devices = 4 });
  expect_invalid "zipf_s" "zipf_s" (fun () ->
      Scenario.validate_config "Store.Scenario"
        { Scenario.default_config with Scenario.zipf_s = -0.5 });
  expect_invalid "duration" "duration" (fun () ->
      Scenario.validate_config "Store.Scenario"
        { Scenario.default_config with Scenario.duration = 0. });
  expect_invalid "weight" "weight" (fun () ->
      Ring.create ~part_power:4 ~replicas:2
        [|
          { Ring.node = 0; zone = 0; weight = 1. };
          { Ring.node = 1; zone = 1; weight = -3. };
        |]);
  expect_invalid "ring replicas" "replicas" (fun () ->
      Ring.create ~part_power:4 ~replicas:5
        [|
          { Ring.node = 0; zone = 0; weight = 1. };
          { Ring.node = 1; zone = 1; weight = 1. };
        |]);
  expect_invalid "threshold" "Selection.alert: threshold" (fun () ->
      Selection.alert ~threshold:0. (fun _ _ -> 1.))

(* --- scenario determinism --- *)

let scenario_matrix = lazy (Euclidean.uniform_box (Rng.create 6991) ~n:60 ~dim:3 ~side_ms:250.)

(* A 60-node world under loss, dynamics and churn. *)
let scenario_world ?(fraction = 0.25) seed =
  let backend = Backend.dense (Lazy.force scenario_matrix) in
  let engine =
    Backend.engine
      ~config:
        {
          Engine.fault = { Fault.default with Fault.loss = 0.05 };
          profile = None;
          churn = Some { Churn.fraction; mean_up = 50.; mean_down = 15.; seed = seed + 3 };
          dynamics = Some Dynamics.default;
          budget = None;
          cache_ttl = None;
          cache_capacity = None;
          charge_time = false;
          seed;
        }
      backend
  in
  (backend, engine)

let run_scenario ?trace ?fraction ?(tweak = Fun.id) seed =
  let backend, engine = scenario_world ?fraction seed in
  let config =
    {
      Scenario.default_config with
      Scenario.devices = 16;
      zones = 4;
      part_power = 5;
      replicas = 3;
      objects = 64;
      reads = 120;
      duration = 90.;
      repair_interval = 10.;
      seed = seed + 11;
    }
  in
  let sc =
    Scenario.create ~config:(tweak config) ~policy:(Selection.cached ()) ~backend ~engine ()
  in
  (Scenario.run ?trace sc, Engine.obs engine)

let test_scenario_deterministic () =
  let a, _ = run_scenario (1000 + prop_seed) in
  let b, _ = run_scenario (1000 + prop_seed) in
  checkb "identical results" true (a = b);
  checkb "repair passes ran" true (a.Scenario.repair.Scenario.passes >= 8)

(* --- every scenario outcome is counted once --- *)

(* A counter's value, or a histogram's number of observations. *)
let count reg name =
  match List.assoc_opt name (Obs.Registry.metrics reg) with
  | Some (Obs.Registry.Counter c) -> Obs.Counter.count c
  | Some (Obs.Registry.Histogram h) -> Obs.Histogram.count h
  | _ -> -1

let expect_all checks =
  List.for_all
    (fun (what, want, got) ->
      want = got || QCheck2.Test.fail_reportf "%s: expected %d, got %d" what want got)
    checks

(* The registry series against a fold over the traced read outcomes.
   One to three devices under full churn lose every replica of some
   partitions, so reads fail after walking the handoff order. *)
let store_accounted (devices, fraction, repair_interval, seed) =
  let tweak c = { c with Scenario.devices; replicas = min 3 devices; repair_interval } in
  let outcomes = ref [] in
  let r, reg = run_scenario ~trace:(fun o -> outcomes := o :: !outcomes) ~fraction ~tweak seed in
  let open Scenario in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 !outcomes in
  let served o = Bool.to_int (o.device <> None) in
  expect_all
    [
      ("store.read_failures", sum (fun o -> 1 - served o), count reg "store.read_failures");
      ("store.handoff_reads", sum (fun o -> Bool.to_int o.handoff), count reg "store.handoff_reads");
      ("store.dead_attempts", sum (fun o -> o.attempts - served o), count reg "store.dead_attempts");
      ("policy_probes", sum (fun o -> o.probes), r.policy_probes);
      ("reads = issued + skipped", 120, r.issued + r.skipped);
      ("issued = completed + failed", r.issued, r.completed + r.failed);
      ("|latencies| = completed", r.completed, Array.length r.latencies);
      ("count(store.read_ms) = completed", r.completed, count reg "store.read_ms");
    ]

let stream_accounted (members, fraction, repair_interval, seed) =
  let backend, engine = scenario_world ~fraction seed in
  let config = { Swarm.default_config with Swarm.members; duration = 20.; repair_interval; seed } in
  let r = Swarm.run (Swarm.create ~config ~select:(Selection.random ~seed) ~backend ~engine ()) in
  let reg = Engine.obs engine in
  let open Swarm in
  expect_all
    [
      ("deadline outcomes", r.chunks * (members - 1), r.on_time + r.missed + r.down_at_deadline);
      ( "|stretches| + stretch_dropped", r.on_time,
        Array.length r.stretches + count reg "stream.stretch_dropped" );
      ("count(stream.receive_ms)", r.on_time, count reg "stream.receive_ms");
    ]

let test_outcomes_counted_once =
  qcheck ~count:24 ~name:"every outcome counted once"
    ~print:QCheck2.Print.(pair bool (quad int float float int))
    QCheck2.Gen.(
      pair bool (quad (int_range 1 6) (oneofl [ 0.25; 1. ]) (oneofl [ 0.; 10. ]) (int_bound 999)))
    (fun (store, (k, fraction, repair, seed)) ->
      if store then store_accounted (k, fraction, repair, seed)
      else stream_accounted (k + 1, fraction, repair, seed))

let () =
  Alcotest.run "store_properties"
    [
      ( "ring",
        [
          test_partitions_distinct;
          test_zone_dispersion;
          test_handoff;
          test_balance;
          test_determinism;
          Alcotest.test_case "partition map stable across rebalance" `Quick
            test_partition_map_stable;
        ] );
      ( "policy",
        [
          test_policies_agree_under_ti;
          test_alert_skips_flagged;
          Alcotest.test_case "alert all-flagged fallback" `Quick
            test_alert_all_flagged_picks_best_measured;
          test_rank_select_agree;
        ] );
      ( "validation",
        [ Alcotest.test_case "invalid params name the field" `Quick test_validation ] );
      ( "scenario",
        [
          Alcotest.test_case "seeded run is deterministic" `Quick
            test_scenario_deterministic;
          test_outcomes_counted_once;
        ] );
    ]
