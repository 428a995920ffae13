(* lib/stream: the P2P live-streaming swarm.

   The contracts under test (see DESIGN.md, "Streaming"):

   - On a churn-free world with a locality-aware policy every
     (member, chunk) pair lands inside the playback deadline: the
     push plane alone sustains the stream, and nothing is lost,
     duplicated to death, or silently dropped.
   - A run is a pure function of (config, policy, backend, engine
     config): replaying the same seeds yields the identical result
     record, stretch for stretch — the property the CI determinism
     gate checks end to end through `tivlab stream --metrics-out`.
   - Policy probes ride the engine like any other measurement: the
     alert policy's verification probes are accounted under the
     ["stream"] label, repair re-grafting under ["stream_repair"];
     test_store_properties checks the stream.* counters' identities.
   - The locality spectrum orders as the paper says it should: the
     alert tree's edges are shorter than the naive tree's, and under
     churn the naive swarm misses at least as many deadlines.
   - An arbiter carve starves the repair plane deterministically:
     denied passes are counted, not silently skipped.

   Like test_measure_properties, the suite reads TIVAWARE_PROP_SEED so
   the CI matrix (seed band 16-18) re-runs it under distinct seeds;
   any failure stays reproducible under its seed. *)

module Rng = Tivaware_util.Rng
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Obs = Tivaware_obs
module Multicast = Tivaware_overlay.Multicast
module Selection = Tivaware_tiv.Selection
module Swarm = Tivaware_stream.Swarm

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.))

let n = 60

let matrix =
  lazy (Datasets.generate ~size:n ~seed:2007 Datasets.Ds2).Generator.matrix

let backend = lazy (Backend.dense (Lazy.force matrix))

let engine_config ?churn ?dynamics seed =
  {
    Engine.fault = Fault.default;
    profile = None;
    churn;
    dynamics;
    budget = None;
    cache_ttl = None;
    cache_capacity = None;
    charge_time = false;
    seed;
  }

let make_engine ?churn ?dynamics ~seed () =
  Backend.engine ~config:(engine_config ?churn ?dynamics seed) (Lazy.force backend)

let stream_churn seed = { Churn.default with Churn.fraction = 0.2; seed }

(* Small but real: 24 members, 75 chunks, a pull plane and a repair
   plane, finishing well under a second. *)
let small_config =
  { Swarm.default_config with Swarm.members = 24; duration = 30.; seed = 16 }

let true_delay i j = Backend.query (Lazy.force backend) i j

(* ------------------------------------------------------------------ *)
(* Churn-free liveness: push alone sustains the stream                 *)

let test_no_churn_full_delivery () =
  let engine = make_engine ~seed:(100 + prop_seed) () in
  let sw =
    Swarm.create ~config:small_config
      ~select:(Selection.coordinate true_delay)
      ~backend:(Lazy.force backend) ~engine ()
  in
  let r = Swarm.run sw in
  checki "everyone joined" small_config.Swarm.members r.Swarm.joined;
  checki "every pair judged on time"
    ((small_config.Swarm.members - 1) * r.Swarm.chunks)
    r.Swarm.on_time;
  checki "no misses" 0 r.Swarm.missed;
  checkf "miss rate zero" 0. r.Swarm.miss_rate;
  checki "no member down at a deadline" 0 r.Swarm.down_at_deadline;
  checki "no transfer failed on a complete matrix" 0 r.Swarm.transfer_failures;
  checki "no delivery found a dead receiver" 0 r.Swarm.lost_down;
  checki "nothing detached without churn" 0 r.Swarm.repair.Swarm.detached;
  (* NOT >= 1: in a TIV delay space a two-hop tree path can undercut
     the direct edge — detouring beating the triangle inequality is
     the phenomenon the whole repo is about. *)
  checkb "every stretch is positive and finite" true
    (Array.for_all (fun s -> Float.is_finite s && s > 0.) r.Swarm.stretches);
  checki "a stretch sample per on-time delivery" r.Swarm.on_time
    (Array.length r.Swarm.stretches)

(* ------------------------------------------------------------------ *)
(* Determinism: same seeds, same world -> identical result record      *)

(* Heavy churn with short lifetimes: in a 30 s run with half the
   population churning on ~10 s up / ~30 s down episodes, some member
   reliably fails mid-broadcast, so the repair plane has real work
   under every seed. *)
let heavy_churn seed =
  { Churn.fraction = 0.5; mean_up = 10.; mean_down = 30.; seed }

let churny_run () =
  let engine =
    make_engine
      ~churn:(heavy_churn (1 + prop_seed))
      ~dynamics:
        {
          Dynamics.default with
          Dynamics.route_flap = Some Dynamics.default_route_flap;
          seed = 1 + prop_seed;
        }
      ~seed:(1 + prop_seed) ()
  in
  let sw =
    Swarm.create
      ~config:{ small_config with Swarm.seed = 16 + prop_seed }
      ~select:(Selection.alert true_delay)
      ~backend:(Lazy.force backend) ~engine ()
  in
  (Swarm.run sw, engine)

let test_deterministic_replay () =
  let a, _ = churny_run () in
  let b, _ = churny_run () in
  (* [compare], not [=], so nan tree metrics compare equal. *)
  checkb "identical result record" true (compare a b = 0)

(* ------------------------------------------------------------------ *)
(* Probe accounting and the stream.* observability series              *)

let test_probe_accounting () =
  let r, engine = churny_run () in
  let stats = Engine.stats engine in
  checkb "alert verification probes charged under the stream label" true
    (Probe_stats.label_count stats "stream" > 0);
  checkb "repair ran" true (r.Swarm.repair.Swarm.passes > 0);
  checkb "churn gave repair real work" true
    (r.Swarm.repair.Swarm.detached + r.Swarm.repair.Swarm.rejoined > 0);
  checkb "repair probes charged under the stream_repair label" true
    (Probe_stats.label_count stats "stream_repair" > 0);
  checki "stream.chunks_emitted = chunks" r.Swarm.chunks
    (Obs.Counter.count (Obs.Registry.counter (Engine.obs engine) "stream.chunks_emitted"))

(* ------------------------------------------------------------------ *)
(* Locality ordering: alert < naive on edges; naive misses more        *)

let run_policy ?churn ?(config = small_config) select =
  let engine =
    make_engine
      ?churn
      ~seed:(2 + prop_seed) ()
  in
  let sw =
    Swarm.create
      ~config:{ config with Swarm.seed = 16 + prop_seed }
      ~select ~backend:(Lazy.force backend) ~engine ()
  in
  Swarm.run sw

let test_locality_ordering () =
  (* Churn-free: the trees are a pure function of the policy, so the
     edge comparison is exact, not statistical. *)
  let naive = run_policy (Selection.random ~seed:(16 + prop_seed)) in
  let alert = run_policy (Selection.alert true_delay) in
  checkb "alert tree edges shorter than naive's" true
    (alert.Swarm.tree_metrics.Multicast.mean_edge_ms
    < naive.Swarm.tree_metrics.Multicast.mean_edge_ms);
  (* The application metric follows structurally once the deadline
     binds on path latency: with a tight deadline (still churn-free,
     so this is exact, not churn-sampling luck) the naive tree's long
     random edges overrun where the alert tree's verified short edges
     fit. *)
  let tight = { small_config with Swarm.deadline_ms = 120. } in
  let naive_t = run_policy ~config:tight (Selection.random ~seed:(16 + prop_seed)) in
  let alert_t = run_policy ~config:tight (Selection.alert true_delay) in
  checkb
    (Printf.sprintf
       "alert misses fewer tight deadlines (%d) than naive (%d)"
       alert_t.Swarm.missed naive_t.Swarm.missed)
    true
    (alert_t.Swarm.missed < naive_t.Swarm.missed);
  (* Under churn the gap is statistical at this scale — a single 30 s
     skirmish can flip a sub-1% difference — so the guard is one-sided
     with slack: alert must never lose badly. *)
  let churn = stream_churn (2 + prop_seed) in
  let naive_c = run_policy ~churn (Selection.random ~seed:(16 + prop_seed)) in
  let alert_c = run_policy ~churn (Selection.alert true_delay) in
  checkb
    (Printf.sprintf "alert miss rate (%.4f) within slack of naive's (%.4f)"
       alert_c.Swarm.miss_rate naive_c.Swarm.miss_rate)
    true
    (alert_c.Swarm.miss_rate <= naive_c.Swarm.miss_rate +. 0.05)

(* ------------------------------------------------------------------ *)
(* Config validation                                                   *)

let test_validate_config () =
  let expect_invalid what config =
    match Swarm.validate_config "test" config with
    | () -> Alcotest.failf "%s must be rejected" what
    | exception Invalid_argument _ -> ()
  in
  Swarm.validate_config "test" Swarm.default_config;
  expect_invalid "one member" { Swarm.default_config with Swarm.members = 1 };
  expect_invalid "zero chunk gap" { Swarm.default_config with Swarm.chunk_ms = 0. };
  expect_invalid "nan deadline" { Swarm.default_config with Swarm.deadline_ms = nan };
  expect_invalid "empty buffer" { Swarm.default_config with Swarm.buffer_chunks = 0 };
  expect_invalid "zero pull interval"
    { Swarm.default_config with Swarm.pull_interval = 0. };
  expect_invalid "negative repair interval"
    { Swarm.default_config with Swarm.repair_interval = -1. };
  expect_invalid "infinite repair interval"
    { Swarm.default_config with Swarm.repair_interval = infinity };
  expect_invalid "zero degree" { Swarm.default_config with Swarm.max_degree = 0 };
  expect_invalid "zero duration" { Swarm.default_config with Swarm.duration = 0. };
  (match
     Swarm.create
       ~config:{ Swarm.default_config with Swarm.members = n + 1 }
       ~select:(Selection.random ~seed:1)
       ~backend:(Lazy.force backend)
       ~engine:(make_engine ~seed:3 ())
       ()
   with
  | _ -> Alcotest.fail "members > delay-space nodes must be rejected"
  | exception Invalid_argument _ -> ());
  match Selection.alert ~threshold:0. true_delay with
  | _ -> Alcotest.fail "non-positive alert threshold must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names its caller" msg)
      true
      (String.starts_with ~prefix:"Selection.alert: threshold" msg)

(* ------------------------------------------------------------------ *)
(* Arbiter carve: a starved repair plane is denied, and counted        *)

let test_arbiter_starves_repair () =
  (* stream_repair's carve is one token refilled at 0.005/s: the first
     pass is admitted, every later one (5 s apart) is refused. *)
  let arbiter =
    Arbiter.create
      (Arbiter.config ~capacity:2. ~rate:0.01
         ~shares:[ ("stream_repair", 0.5); ("stream", 0.5) ])
  in
  let engine = make_engine ~churn:(stream_churn (3 + prop_seed)) ~seed:4 () in
  let sw =
    Swarm.create ~arbiter ~config:small_config
      ~select:(Selection.random ~seed:16)
      ~backend:(Lazy.force backend) ~engine ()
  in
  let r = Swarm.run sw in
  checkb "some passes were admitted" true (r.Swarm.repair.Swarm.passes > 0);
  checkb "the starved carve denied passes" true
    (r.Swarm.repair.Swarm.denied > 0)

(* ------------------------------------------------------------------ *)
(* Known failure: full churn strands members below the root            *)

(* `tivlab stream --size 60 --members 4 --churn --churn-fraction 1
   --duration 20 --seed 2` ends on a parent cycle cut off from the
   source: an orphan left the tree with a member below it, then rejoined
   under that member.  Flips to [None] once repair detaches whole
   subtrees and a rejoin excludes the node's old subtree.  A refresh
   pass on the stranded tree returns (the root-delay walk stops at the
   cycle) and may re-graft the cut-off members; under ground-truth
   predictions this one does. *)
let test_full_churn_strands_members () =
  let config seed = engine_config ~churn:{ Churn.default with Churn.fraction = 1.; seed } seed in
  let backend =
    Backend.dense (Datasets.generate ~size:60 ~seed:2 Datasets.Ds2).Generator.matrix
  in
  let embed, _ = Tivaware_core.Selectors.maintenance_embedding ~config:(config 3) backend in
  let engine = Backend.engine ~config:(config 2) backend in
  let sw =
    Swarm.create
      ~config:{ Swarm.default_config with Swarm.members = 4; duration = 20.; seed = 25 }
      ~select:(Selection.alert (embed ())) ~backend ~engine ()
  in
  ignore (Swarm.run sw);
  let tree = Swarm.tree sw in
  checkb "a member cannot reach the source" true
    (match Multicast.check tree with
    | Some (Multicast.Unreachable _) -> true
    | _ -> false);
  ignore (Multicast.refresh ~predict:(Backend.query backend) tree (Rng.create 26) engine);
  checkb "refresh returns and keeps the index and caps" true
    (match Multicast.check tree with
    | None | Some (Multicast.Unreachable _) -> true
    | Some _ -> false)

let () =
  Alcotest.run "stream"
    [
      ( "swarm",
        [
          Alcotest.test_case "churn-free world misses nothing" `Quick
            test_no_churn_full_delivery;
          Alcotest.test_case "replay is bit-identical" `Quick
            test_deterministic_replay;
          Alcotest.test_case "probes and counters accounted" `Quick
            test_probe_accounting;
          Alcotest.test_case "locality ordering holds" `Quick
            test_locality_ordering;
          Alcotest.test_case "full churn strands members (known failure)" `Quick
            test_full_churn_strands_members;
        ] );
      ( "config",
        [
          Alcotest.test_case "invalid configs rejected" `Quick
            test_validate_config;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "starved repair plane is denied" `Quick
            test_arbiter_starves_repair;
        ] );
    ]
