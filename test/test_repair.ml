(* Churn-aware protocol repair: liveness under churn for the four
   protocol layers, against a churning measurement engine.

   The contracts under test (see DESIGN.md, "Dynamics and repair"):

   - Vivaldi ({!Dynamic_neighbors.repair_neighbors}): after a repair
     pass no live node keeps a neighbor that is down.
   - Chord ({!Chord.heal_engine}): once healing converges, lookups
     never terminate at a node that is actually down, and a second
     pass at the same instant is a fixed point.
   - Meridian ({!Overlay.repair_engine}): ring maintenance evicts all
     dead members from live hosts' rings, query success recovers after
     a churn burst, and gossiped evictions re-enter once the member
     revives.
   - Multicast ({!Multicast.repair}): the tree stays connected
     (every member reaches the root through live members) and revived
     members rejoin.

   All repair traffic is charged through the engine, so each test also
   checks the pass shows up in per-label probe accounting.

   Like test_measure_properties, the suite reads TIVAWARE_PROP_SEED so
   the CI matrix re-runs it under distinct seeds; any failure stays
   reproducible under its seed. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Online = Tivaware_meridian.Online
module Sim = Tivaware_eventsim.Sim
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Probe_stats = Tivaware_measure.Probe_stats
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Protocol = Tivaware_vivaldi.Protocol
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Multicast = Tivaware_overlay.Multicast
module Backend = Tivaware_backend.Delay_backend

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let rng salt = Rng.create ((prop_seed * 1_000_003) + salt)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let n = 60

let matrix =
  lazy (Datasets.generate ~size:n ~seed:2007 Datasets.Ds2).Generator.matrix

(* Heavy churn with long outages: at steady state roughly a third of
   the population is down, and a node that goes down stays down long
   enough for repair-time assertions (the clock is frozen while
   [charge_time] is off). *)
let burst_churn seed =
  { Churn.fraction = 0.5; mean_up = 60.; mean_down = 120.; seed }

let engine ?(churn = burst_churn 0) ~seed () =
  Engine.of_matrix
    ~config:
      {
        Engine.fault = Fault.default;
        profile = None;
        churn = Some churn;
        dynamics = None;
        budget = None;
        cache_ttl = None;
        cache_capacity = None;
        charge_time = false;
        seed;
      }
    (Lazy.force matrix)

let churn_of e = Option.get (Engine.churn e)

let repair_label_charged e label =
  checkb
    (Printf.sprintf "%s probes accounted" label)
    true
    (Probe_stats.label_count (Engine.stats e) label > 0)

(* ------------------------------------------------------------------ *)
(* Vivaldi: neighbor sets contain no dead node after a repair pass     *)

let test_vivaldi_no_dead_neighbors () =
  let e = engine ~churn:(burst_churn (1 + prop_seed)) ~seed:1 () in
  let sys = System.create_with_engine (rng 1) e in
  Engine.advance_to e 200.;
  let churn = churn_of e in
  let dead_neighbor_edges () =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if Churn.is_up churn i then
        Array.iter
          (fun j -> if not (Churn.is_up churn j) then incr count)
          (System.neighbors sys i)
    done;
    !count
  in
  checkb "the burst left dead nodes in neighbor sets" true
    (dead_neighbor_edges () > 0);
  let r = Dynamic_neighbors.repair_neighbors sys in
  checkb "repair evicted something" true (r.Dynamic_neighbors.evicted > 0);
  checkb "repair resampled replacements" true
    (r.Dynamic_neighbors.resampled > 0);
  checki "no live node keeps a dead neighbor" 0 (dead_neighbor_edges ());
  repair_label_charged e "vivaldi-repair"

(* ------------------------------------------------------------------ *)
(* Chord: lookups never return a dead owner once healing converges     *)

let test_chord_lookup_liveness () =
  let e = engine ~churn:(burst_churn (2 + prop_seed)) ~seed:2 () in
  let t =
    Chord.build ~successor_list:8 ~predict:(Engine.rtt ~label:"dht" e)
      (Engine.size e)
  in
  Engine.advance_to e 200.;
  let churn = churn_of e in
  let h1 = Chord.heal_engine t e in
  checkb "first pass marks failures" true (h1.Chord.marked_dead > 0);
  checkb "first pass reroutes successors" true (h1.Chord.rerouted > 0);
  (* Healing at a frozen instant is a fixed point: a second pass
     changes nothing. *)
  let h2 = Chord.heal_engine t e in
  checki "converged: no new deaths" 0 h2.Chord.marked_dead;
  checki "converged: no new reroutes" 0 h2.Chord.rerouted;
  (* The failure belief never accuses a live node (no loss in this
     engine, so the only nan a heal probe can see is a real outage). *)
  for i = 0 to n - 1 do
    if Chord.believed_dead t i then
      checkb (Printf.sprintf "belief about %d is true" i) false
        (Churn.is_up churn i)
  done;
  (* Lookups from live sources terminate at live owners. *)
  let m = Lazy.force matrix in
  let g = rng 2 in
  let lookups = ref 0 in
  while !lookups < 200 do
    let source = Rng.int g n in
    if Churn.is_up churn source then begin
      incr lookups;
      let key =
        Id_space.add (Id_space.of_node (Rng.int g n)) (Rng.int g 1_000_000)
      in
      let o = Chord.lookup t (Backend.dense m) ~source ~key in
      checkb
        (Printf.sprintf "owner %d of key %d is alive" o.Chord.owner key)
        true
        (Churn.is_up churn o.Chord.owner)
    end
  done;
  repair_label_charged e "dht-repair";
  (* A revived node is re-probed by its predecessor and its belief
     cleared on the next pass. *)
  let victim =
    let v = ref None in
    for i = n - 1 downto 0 do
      if Chord.believed_dead t i then v := Some i
    done;
    Option.get !v
  in
  let t' = ref (Engine.now e) in
  while (not (Churn.is_up churn victim)) && !t' < 100_000. do
    t' := !t' +. 10.;
    Engine.advance_to e !t'
  done;
  checkb "victim eventually revived" true (Churn.is_up churn victim);
  let h3 = Chord.heal_engine t e in
  checkb "heal observed revivals" true (h3.Chord.revived > 0);
  checkb "revived victim's belief cleared" false (Chord.believed_dead t victim)

(* ------------------------------------------------------------------ *)
(* Meridian: rings hold only live members; query success recovers      *)

let test_meridian_recovery () =
  let e = engine ~churn:(burst_churn (3 + prop_seed)) ~seed:3 () in
  let m = Lazy.force matrix in
  let nodes = Rng.sample_indices (rng 3) ~n ~k:24 in
  let overlay =
    Overlay.build (rng 4) (Backend.dense m) (Ring.unlimited_config n)
      ~meridian_nodes:nodes
  in
  let sim = Sim.create () in
  Online.attach sim e;
  let churn = churn_of e in
  let run_queries ~live_only =
    let pick = rng (if live_only then 5 else 6) in
    let answered = ref 0 and total = ref 0 in
    while !total < 40 do
      let client = Rng.int pick n in
      let start = nodes.(Rng.int pick (Array.length nodes)) in
      let target = Rng.int pick n in
      let eligible =
        (not (Overlay.is_meridian overlay target))
        && client <> start
        && (not (Matrix.is_missing m client start))
        && ((not live_only)
           || Churn.is_up churn client && Churn.is_up churn start
              && Churn.is_up churn target)
      in
      if eligible then begin
        incr total;
        let o = Online.closest sim overlay e ~client ~start ~target in
        if not (Float.is_nan o.Online.query.Query.chosen_delay) then
          incr answered
      end
    done;
    float_of_int !answered /. float_of_int !total
  in
  Engine.advance_to e 200.;
  (* During the burst, queries landing on dead starts or targets fail. *)
  let before = run_queries ~live_only:false in
  checkb
    (Printf.sprintf "burst degraded query success (%.2f)" before)
    true (before < 0.95);
  let dead_ring_entries () =
    let count = ref 0 in
    Array.iter
      (fun host ->
        if Churn.is_up churn host then
          List.iter
            (fun mb ->
              if not (Churn.is_up churn mb.Overlay.id) then incr count)
            (Overlay.all_entries overlay host))
      nodes;
    !count
  in
  checkb "the burst left dead members in rings" true (dead_ring_entries () > 0);
  let r1 = Overlay.repair_engine overlay e in
  checkb "maintenance evicted dead members" true (r1.Overlay.evicted > 0);
  checki "no live host keeps a dead ring member" 0 (dead_ring_entries ());
  checkb "evictions are gossiped for re-entry" true
    (Overlay.pending_reentries overlay > 0);
  (* Clients retry against live starts: service recovers. *)
  let after = run_queries ~live_only:true in
  checkb
    (Printf.sprintf "query success recovered (%.2f -> %.2f)" before after)
    true
    (after > before && after >= 0.8);
  repair_label_charged e "meridian-repair";
  (* Once members revive, later passes file them back into rings; keep
     running maintenance until a revival and its host line up. *)
  let reentered = ref 0 in
  let t = ref (Engine.now e) in
  while !reentered = 0 && !t < 5_000. do
    t := !t +. 100.;
    Engine.advance_to e !t;
    let r = Overlay.repair_engine overlay e in
    reentered := !reentered + r.Overlay.reentered
  done;
  checkb "revived members re-entered rings" true (!reentered > 0)

(* ------------------------------------------------------------------ *)
(* Multicast: the tree stays connected through a burst                 *)

let test_multicast_tree_connected () =
  let e = engine ~churn:(burst_churn (4 + prop_seed)) ~seed:4 () in
  let churn = churn_of e in
  (* Root a node outside the churning subset: the repair contract
     covers member failure, not root failure. *)
  let root =
    let r = ref (-1) in
    for i = n - 1 downto 0 do
      if not (Churn.churning churn i) then r := i
    done;
    !r
  in
  checkb "found a stable root" true (root >= 0);
  let join_order =
    let rest = Array.of_list (List.filter (( <> ) root) (List.init n Fun.id)) in
    Rng.shuffle (rng 7) rest;
    Array.append [| root |] rest
  in
  let t = Multicast.build e ~join_order in
  let initial_members = List.length (Multicast.members t) in
  checkb "most nodes joined" true (initial_members > n / 2);
  Engine.advance_to e 200.;
  let r = Multicast.repair t (rng 8) e in
  checkb "repair detached dead members" true (r.Multicast.detached > 0);
  let assert_connected () =
    checkb "every member reaches the root" true (Multicast.check t = None);
    Alcotest.(check (list int)) "no member is down" []
      (List.filter (fun m -> not (Churn.is_up churn m)) (Multicast.members t))
  in
  assert_connected ();
  repair_label_charged e "multicast-repair";
  (* Revived members that still want the group rejoin on later passes,
     and the repaired tree stays connected. *)
  let rejoined = ref 0 in
  let clock = ref (Engine.now e) in
  let g = rng 9 in
  while !rejoined = 0 && !clock < 5_000. do
    clock := !clock +. 100.;
    Engine.advance_to e !clock;
    let r' = Multicast.repair t g e in
    rejoined := !rejoined + r'.Multicast.rejoined
  done;
  checkb "revived members rejoined" true (!rejoined > 0);
  assert_connected ()

(* Worst-case burst: every direct child of the root churns out in one
   pass, orphaning all of the root's subtrees at once.  The repair
   contract says the root is always an attachment candidate, so no
   orphaned grandchild may fragment away — the tree re-hangs every
   surviving member in a single pass.  Uses the oracle-mode repair so
   the down set can be forced to exactly the root's children. *)
(* The tree's root: the one member without a parent. *)
let root t = List.find (fun n -> Multicast.parent t n = None) (Multicast.members t)

let test_multicast_root_children_burst () =
  let m = Lazy.force matrix in
  let join_order =
    let rest = Array.of_list (List.init (n - 1) (fun i -> i + 1)) in
    Rng.shuffle (rng 10) rest;
    Array.append [| 0 |] rest
  in
  let predict i j = Matrix.get m i j in
  let e = Engine.of_matrix m in
  (* A small degree cap forces real depth: the root's children own
     subtrees, not leaves, so the burst actually orphans someone. *)
  let t =
    Multicast.build
      ~config:{ Multicast.default_config with Multicast.max_degree = 3 }
      ~predict e ~join_order
  in
  let before = List.length (Multicast.members t) in
  checki "everyone joined a complete matrix" n before;
  let victims = Multicast.children t (root t) in
  checkb "root has direct children" true (victims <> []);
  let orphaned =
    List.concat_map (fun v -> Multicast.children t v) victims
  in
  checkb "the burst orphans at least one grandchild" true (orphaned <> []);
  let up i = not (List.mem i victims) in
  let r = Multicast.repair ~predict ~up t (rng 11) e in
  checki "exactly the root's children detached" (List.length victims)
    r.Multicast.detached;
  checkb "orphaned subtrees re-grafted" true
    (r.Multicast.reattached >= List.length orphaned);
  let members = Multicast.members t in
  checki "no one else left the tree" (before - List.length victims)
    (List.length members);
  checkb "every member reaches the root" true (Multicast.check t = None);
  Alcotest.(check (list int)) "no member is down" []
    (List.filter (fun m -> not (up m)) members);
  (* Revival: with everyone back up, one pass re-admits all victims. *)
  let r' = Multicast.repair ~predict t (rng 12) e in
  checki "all victims rejoined" (List.length victims) r'.Multicast.rejoined;
  checki "full membership restored" before
    (List.length (Multicast.members t))

(* ------------------------------------------------------------------ *)
(* Revival regression: a node that comes back answers probes again     *)

(* Engine path: churn down-windows are mirrored into the fault
   injector's node-down state and cleared on revival. *)
let test_engine_revival_answers () =
  let e = engine ~churn:(burst_churn 11) ~seed:5 () in
  let churn = churn_of e in
  Engine.advance_to e 200.;
  let victim =
    let v = ref None in
    for i = n - 1 downto 0 do
      if Churn.churning churn i && not (Churn.is_up churn i) then v := Some i
    done;
    Option.get !v
  in
  let peer = if victim = 0 then 1 else 0 in
  (match Engine.probe e peer victim with
  | Engine.Down -> ()
  | _ -> Alcotest.fail "probe toward the down victim must fail");
  let t = ref (Engine.now e) in
  while (not (Churn.is_up churn victim)) && !t < 100_000. do
    t := !t +. 10.;
    Engine.advance_to e !t
  done;
  checkb "victim revived" true (Churn.is_up churn victim);
  checkb "fault state cleared on revival" false
    (Fault.node_down (Engine.fault e) victim);
  match Engine.probe e peer victim with
  | Engine.Rtt _ | Engine.Unmeasured -> ()
  | _ -> Alcotest.fail "revived victim must answer probes again"

(* Protocol path: the engine's churn schedule is the one writer of
   node outages, so after an event-driven Vivaldi run every down spell
   that ended has been cleared from the fault injector as well as set.
   The regression this pins: nodes used to be marked down but never
   cleared, so any node that ever failed stayed unreachable forever.
   The injector's down set at the end of the run is exactly the
   population the engine reports down. *)
let test_protocol_churn_revival_mirrored () =
  (* Fixed seeds: the assertion counts exact protocol state at the end
     of the run, so this test does not vary with TIVAWARE_PROP_SEED. *)
  let e =
    engine
      ~churn:{ Churn.fraction = 1.; mean_up = 8.; mean_down = 0.5; seed = 71 }
      ~seed:71 ()
  in
  let s = System.create_with_engine (Rng.create 71) e in
  let sim = Sim.create () in
  ignore (Protocol.run sim s ~duration:80.);
  let churn = churn_of e in
  let fault = Engine.fault e in
  let down_now = ref 0 in
  for i = 0 to n - 1 do
    if not (Engine.up e i) then incr down_now;
    checkb
      (Printf.sprintf "node %d: injector down = engine down" i)
      (not (Engine.up e i))
      (Fault.node_down fault i)
  done;
  checkb "failures happened" true (Churn.transitions churn > 0);
  (* Every node starts up, so toggles beyond the currently-down count
     are down spells that ended. *)
  checkb "rejoins happened" true (Churn.transitions churn > !down_now);
  (* Every rejoined node answers: probe a node the injector says is up. *)
  let up_node =
    let v = ref None in
    for i = n - 1 downto 1 do
      if not (Fault.node_down fault i) then v := Some i
    done;
    Option.get !v
  in
  let peer = if up_node = 0 then 1 else 0 in
  match Engine.probe e peer up_node with
  | Engine.Rtt _ | Engine.Unmeasured -> ()
  | _ -> Alcotest.fail "a node the injector says is up must answer"

let () =
  Alcotest.run "repair"
    [
      ( "vivaldi",
        [
          Alcotest.test_case "no dead neighbors after repair" `Quick
            test_vivaldi_no_dead_neighbors;
        ] );
      ( "chord",
        [
          Alcotest.test_case "lookup liveness after healing" `Quick
            test_chord_lookup_liveness;
        ] );
      ( "meridian",
        [
          Alcotest.test_case "ring maintenance and query recovery" `Quick
            test_meridian_recovery;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "tree connected through a burst" `Quick
            test_multicast_tree_connected;
          Alcotest.test_case "root's children all churn out at once" `Quick
            test_multicast_root_children_burst;
        ] );
      ( "revival",
        [
          Alcotest.test_case "engine clears fault state" `Quick
            test_engine_revival_answers;
          Alcotest.test_case "protocol churn mirrors both ways" `Quick
            test_protocol_churn_revival_mirrored;
        ] );
    ]
