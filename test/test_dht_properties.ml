(* Property layer for continuous Chord self-stabilization.

   The contracts under test (see DESIGN.md, "Continuous
   stabilization"):

   - Convergence: after any seeded sequence of churn transitions
     followed by enough stabilization rounds at a frozen instant, the
     ring converges — every live node's successor is the next live
     node clockwise, predecessor beliefs match, the shared failure
     belief equals ground truth, fingers the router would use are
     live, and every key has exactly one live primary owner (the
     ground-truth owner), with lookups terminating there.
   - Heal equivalence: when churn stops, {!Chord.heal_engine} iterated
     to a fixed point and the periodic stabilizer reach the same
     successor structure (provided no dead run exceeds the successor
     list, the only regime healing can cross at all).
   - Inertness: with zero churn and no faults, stabilization verifies
     the built structure without changing it — no reroutes, no
     migration, and no probe accounting beyond its own label.
   - Determinism: the whole scheduled scenario is a function of
     (seed, interval, budget).
   - Build: every finger table, successor, predecessor and successor
     list equals a plain per-slot reference build's, and an engine
     predictor sees the same probes.

   The suite uses a complete synthetic matrix (no missing pairs): the
   strict structural invariants require that silence always means
   death, never an unmeasurable link.  Like test_measure_properties it
   reads TIVAWARE_PROP_SEED so the CI matrix re-runs it under distinct
   seeds. *)

module Rng = Tivaware_util.Rng
module Euclidean = Tivaware_topology.Euclidean
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Sim = Tivaware_eventsim.Sim
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Backend = Tivaware_backend.Delay_backend
module Scenario = Tivaware_dht.Scenario

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let rng salt = Rng.create ((prop_seed * 1_000_003) + salt)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let qcheck ~count ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let n = 48
let successor_list = 8

(* Complete matrix: every pair measurable, so probe silence is always
   a real outage. *)
let matrix = lazy (Euclidean.uniform_box (Rng.create 4007) ~n ~dim:3 ~side_ms:300.)

let burst_churn seed =
  { Churn.fraction = 0.5; mean_up = 60.; mean_down = 120.; seed }

let engine ?churn ?(matrix = Lazy.force matrix) ~seed () =
  Engine.of_matrix
    ~config:
      {
        Engine.fault = Fault.default;
        profile = None;
        churn;
        dynamics = None;
        budget = None;
        cache_ttl = None;
        cache_capacity = None;
        charge_time = false;
        seed;
      }
    matrix

(* Engine-PNS ring: finger candidates are compared by probing. *)
let chord_of ?successor_list e =
  Chord.build ?successor_list ~predict:(Engine.rtt ~label:"dht" e)
    (Engine.size e)

let is_up churn i =
  match churn with None -> true | Some c -> Churn.is_up c i

(* Distinct key ids spread over the whole space (low bits carry the
   index, so distinctness is structural). *)
let make_keys salt count =
  let g = rng salt in
  Array.init count (fun i -> (Rng.int g (Id_space.modulus lsr 8) lsl 8) lor i)

(* ------------------------------------------------------------------ *)
(* Ground truth from ids and the churn schedule                        *)

let ring chord =
  let a = Array.init n (fun i -> (Chord.node_id chord i, i)) in
  Array.sort compare a;
  a

let position_of sorted u =
  let p = ref (-1) in
  Array.iteri (fun i (_, v) -> if v = u then p := i) sorted;
  !p

let walk_up sorted churn ~from ~dir =
  let rec go k =
    if k >= n then Alcotest.fail "no live node on the ring"
    else
      let v = snd sorted.(((from + (dir * k)) mod n + n) mod n) in
      if is_up churn v then v else go (k + 1)
  in
  go 1

let next_up sorted churn u = walk_up sorted churn ~from:(position_of sorted u) ~dir:1
let prev_up sorted churn u = walk_up sorted churn ~from:(position_of sorted u) ~dir:(-1)

(* First live node whose id is at or after the key, wrapping. *)
let true_owner sorted churn key =
  let first = ref (-1) and wrapped = ref (-1) in
  Array.iter
    (fun (id, v) ->
      if is_up churn v then begin
        if !wrapped < 0 then wrapped := v;
        if !first < 0 && id >= key then first := v
      end)
    sorted;
  if !first >= 0 then !first else !wrapped

(* Longest run of consecutive dead nodes in ring order. *)
let max_dead_run sorted churn =
  let best = ref 0 and cur = ref 0 in
  for k = 0 to (2 * n) - 1 do
    let v = snd sorted.(k mod n) in
    if is_up churn v then cur := 0
    else begin
      incr cur;
      if !cur > !best then best := !cur
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Fixed-point driving                                                 *)

let snapshot chord =
  ( Array.init n (Chord.successor chord),
    Array.init n (Chord.predecessor chord),
    Array.init n (Chord.successor_list chord),
    Array.init n (Chord.fingers chord),
    Array.init n (Chord.believed_dead chord) )

(* One stabilization round of every node, in index order. *)
let sweep stab =
  for u = 0 to n - 1 do
    Chord.Stabilizer.round stab u
  done

(* Sweep until a whole sweep changes nothing (beliefs, pointers, lists
   and fingers all stable).  The engine clock is frozen between
   sweeps, so a fixed point exists and the cap is generous. *)
let converge stab chord =
  let rec go i prev =
    if i > 100 then Alcotest.fail "stabilization failed to converge";
    sweep stab;
    let cur = snapshot chord in
    if cur <> prev then go (i + 1) cur
  in
  go 0 (snapshot chord)

let all_fingers_config =
  {
    Chord.Stabilizer.default_config with
    Chord.Stabilizer.fingers_per_round = Id_space.bits;
  }

(* ------------------------------------------------------------------ *)
(* Convergence invariants under arbitrary churn histories              *)

let prop_ring_converges (churn_salt, epochs) =
  let churn = burst_churn ((prop_seed * 31) + churn_salt) in
  let e = engine ~churn ~seed:5 () in
  let chord = chord_of ~successor_list e in
  let keys = make_keys 17 96 in
  let store = Chord.Store.create ~replicas:2 chord ~keys in
  let stab =
    Chord.Stabilizer.create ~config:all_fingers_config ~store chord e
  in
  let c = Engine.churn e in
  let sorted = ring chord in
  for epoch = 1 to epochs do
    Engine.advance_to e (float_of_int (epoch * 150));
    converge stab chord
  done;
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  (* Beliefs equal ground truth: every probe answer is conclusive on a
     complete zero-loss matrix, and a fixed point leaves no stale
     belief (a wrong death would be revived via notify/pred-adoption,
     a missed death would still be getting marked). *)
  for i = 0 to n - 1 do
    if Chord.believed_dead chord i = is_up c i then
      fail "belief about node %d is wrong (up=%b)" i (is_up c i)
  done;
  for u = 0 to n - 1 do
    if is_up c u then begin
      (* The ring converged: successor and predecessor beliefs of live
         nodes point at the structurally adjacent live nodes. *)
      let s = Chord.successor chord u and s' = next_up sorted c u in
      if s <> s' then fail "node %d: successor %d, next live is %d" u s s';
      let p = Chord.predecessor chord u and p' = prev_up sorted c u in
      if p <> p' then fail "node %d: predecessor %d, prev live is %d" u p p';
      (* Fingers the router would use are actually live. *)
      Array.iter
        (fun f ->
          if (not (Chord.believed_dead chord f)) && not (is_up c f) then
            fail "node %d keeps a routable dead finger %d" u f)
        (Chord.fingers chord u)
    end
  done;
  (* Key ownership: exactly one live primary per key — the ground
     truth owner — and all replica holders are live. *)
  for i = 0 to Array.length keys - 1 do
    let key = Chord.Store.key store i in
    let primary = Chord.Store.primary_of store i in
    let owner = true_owner sorted c key in
    if primary <> owner then
      fail "key %d homed at %d, live owner is %d" key primary owner;
    if not (Chord.Store.holds store ~key ~node:primary) then
      fail "primary %d does not hold key %d" primary key;
    Array.iter
      (fun h ->
        if not (is_up c h) then fail "key %d has a dead holder %d" key h)
      (Chord.Store.holders store i)
  done;
  (* Lookups from live sources terminate at the owner holding the key. *)
  let g = rng 23 in
  let m = Lazy.force matrix in
  let looked = ref 0 in
  while !looked < 40 do
    let source = Rng.int g n in
    if is_up c source then begin
      incr looked;
      let key = Chord.Store.key store (Rng.int g (Array.length keys)) in
      let o = Chord.lookup chord (Backend.dense m) ~source ~key in
      if not (Chord.Store.holds store ~key ~node:o.Chord.owner) then
        fail "lookup of key %d ended at %d, which does not hold it" key
          o.Chord.owner
    end
  done;
  true

(* ------------------------------------------------------------------ *)
(* Heal / stabilizer equivalence when churn stops                      *)

let test_heal_equivalence () =
  let churn_seed = (prop_seed * 37) + 5 in
  let e_heal = engine ~churn:(burst_churn churn_seed) ~seed:6 () in
  let e_stab = engine ~churn:(burst_churn churn_seed) ~seed:6 () in
  let a = chord_of ~successor_list e_heal in
  let b = chord_of ~successor_list e_stab in
  let sorted = ring a in
  (* Freeze at an instant where no dead run exceeds the successor
     list: past that, healing (which can only walk its list) and
     stabilization (which can walk the ring) legitimately diverge. *)
  let c = Engine.churn e_heal in
  let t = ref 200. in
  Engine.advance_to e_heal !t;
  while max_dead_run sorted c >= successor_list do
    t := !t +. 25.;
    if !t > 10_000. then Alcotest.fail "no suitable freeze instant found";
    Engine.advance_to e_heal !t
  done;
  Engine.advance_to e_stab !t;
  (* Heal to a fixed point. *)
  let rec heal_until_fixed i =
    if i > 20 then Alcotest.fail "healing failed to converge";
    let h = Chord.heal_engine a e_heal in
    if h.Chord.marked_dead + h.Chord.rerouted + h.Chord.revived > 0 then
      heal_until_fixed (i + 1)
  in
  heal_until_fixed 0;
  (* Stabilize to a fixed point. *)
  let stab = Chord.Stabilizer.create ~config:all_fingers_config b e_stab in
  converge stab b;
  (* Same successor structure for every live node, and both equal the
     ground truth ring. *)
  for u = 0 to n - 1 do
    if is_up c u then begin
      let expect = next_up sorted c u in
      checki
        (Printf.sprintf "healed successor of %d" u)
        expect (Chord.successor a u);
      checki
        (Printf.sprintf "stabilized successor of %d" u)
        expect (Chord.successor b u)
    end
  done

(* ------------------------------------------------------------------ *)
(* Zero churn: stabilization is inert beyond its own schedule          *)

let test_zero_churn_inert () =
  let e = engine ~seed:7 () in
  let chord = chord_of ~successor_list e in
  let store = Chord.Store.create ~replicas:2 chord ~keys:(make_keys 19 64) in
  let stab =
    Chord.Stabilizer.create ~config:all_fingers_config ~store chord e
  in
  let before = snapshot chord in
  let issued_before = (Engine.stats e).Probe_stats.issued in
  let dht_before = Probe_stats.label_count (Engine.stats e) "dht" in
  for _ = 1 to 3 do
    sweep stab
  done;
  checkb "structure untouched" true (snapshot chord = before);
  let t = Chord.Stabilizer.totals stab in
  checki "no reroutes" 0 t.Chord.Stabilizer.rerouted;
  checki "no deaths" 0 t.Chord.Stabilizer.marked_dead;
  checki "no revivals" 0 t.Chord.Stabilizer.revived;
  checki "no denials" 0 t.Chord.Stabilizer.denied;
  checki "no migration" 0 (Chord.Store.migrated store);
  checki "no rehomes" 0 (Chord.Store.rehomes store);
  checki "rounds ran" (3 * n) t.Chord.Stabilizer.rounds;
  (* Probe accounting: every probe the sweeps issued is on the
     stabilizer's own label; nothing else moved. *)
  let st = Engine.stats e in
  checki "all new probes on the stabilize label"
    (st.Probe_stats.issued - issued_before)
    (Probe_stats.label_count st "chord-stabilize");
  checki "foreground label untouched" dht_before
    (Probe_stats.label_count st "dht");
  checkb "stabilize probes actually flowed" true
    (t.Chord.Stabilizer.checked > 0)

(* ------------------------------------------------------------------ *)
(* Scheduled scenario determinism in (seed, interval, budget)          *)

let scheduled_run () =
  let churn = burst_churn ((prop_seed * 41) + 3) in
  let e = engine ~churn ~seed:9 () in
  let chord = chord_of ~successor_list e in
  let store = Chord.Store.create ~replicas:2 chord ~keys:(make_keys 29 64) in
  let arbiter =
    Arbiter.create
      (Arbiter.config ~capacity:300. ~rate:150.
         ~shares:[ ("chord_stabilize", 1.); ("dht", 3.) ])
  in
  let config =
    {
      Chord.Stabilizer.default_config with
      Chord.Stabilizer.interval = 3.;
      fingers_per_round = 4;
    }
  in
  let stab = Chord.Stabilizer.create ~config ~arbiter ~store chord e in
  let sim = Sim.create () in
  Chord.Stabilizer.schedule stab sim;
  Sim.run sim ~until:90.;
  ( Chord.Stabilizer.totals stab,
    Chord.Store.migrated store,
    Array.init n (Chord.successor chord),
    Probe_stats.label_count (Engine.stats e) "chord-stabilize" )

let test_scheduled_determinism () =
  let t1, m1, s1, l1 = scheduled_run () in
  let t2, m2, s2, l2 = scheduled_run () in
  checkb "identical totals" true (t1 = t2);
  checki "identical migration" m1 m2;
  checkb "identical successor structure" true (s1 = s2);
  checki "identical probe accounting" l1 l2;
  checkb "the run did work" true (t1.Chord.Stabilizer.rounds > 0)

(* ------------------------------------------------------------------ *)
(* The lookup scenario over generated bounded configs                  *)

let gen_scenario =
  QCheck2.Gen.(
    let* nodes = int_range 8 40 in
    let* churn = bool in
    let* interval = oneof [ pure 0.; float_range 0.5 5. ] in
    let* keys = int_range 1 64 in
    let* lookups = int_range 1 60 in
    let* duration = float_range 1. 30. in
    let* seed = int_range 0 9999 in
    pure
      ( nodes,
        churn,
        { Scenario.default_config with Scenario.keys; lookups; duration; interval; seed }
      ))

let scenario_run (nodes, churn, config) =
  let seed = (prop_seed * 43) + config.Scenario.seed in
  let matrix = Euclidean.uniform_box (Rng.create seed) ~n:nodes ~dim:3 ~side_ms:300. in
  let churn = if churn then Some (burst_churn seed) else None in
  let e = engine ?churn ~matrix ~seed () in
  let sc = Scenario.create ~config ~backend:(Backend.dense matrix) ~engine:e () in
  let r = Scenario.run sc in
  (r, Engine.now e)

(* With or without a stabilizer the engine clock follows the simulator
   to [duration], so churn keeps moving in the off arm. *)
let prop_scenario ((_, _, config) as case) =
  let (r, clock) as run = scenario_run case in
  let issued = r.Scenario.issued in
  let off = config.Scenario.interval <= 0. in
  clock = config.Scenario.duration
  && issued + r.Scenario.skipped = config.Scenario.lookups
  && 0 <= r.Scenario.wrong
  && r.Scenario.wrong <= issued
  && Array.length r.Scenario.latencies = issued
  && ((not off)
     || r.Scenario.totals
        = { Chord.Stabilizer.rounds = 0; checked = 0; rerouted = 0; marked_dead = 0;
            revived = 0; denied = 0 }
        && r.Scenario.migrated = 0)
  && scenario_run case = run

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let test_validation () =
  let e = engine ~seed:11 () in
  let chord = chord_of e in
  checkb "duplicate key rejected" true
    (raises_invalid (fun () ->
         Chord.Store.create chord ~keys:[| 1; 2; 1 |]));
  checkb "empty keyspace rejected" true
    (raises_invalid (fun () -> Chord.Store.create chord ~keys:[||]));
  checkb "negative replicas rejected" true
    (raises_invalid (fun () ->
         Chord.Store.create ~replicas:(-1) chord ~keys:[| 1 |]));
  let bad c = raises_invalid (fun () -> Chord.Stabilizer.create ~config:c chord e) in
  checkb "zero interval rejected" true
    (bad { Chord.Stabilizer.default_config with Chord.Stabilizer.interval = 0. });
  checkb "negative fingers rejected" true
    (bad
       {
         Chord.Stabilizer.default_config with
         Chord.Stabilizer.fingers_per_round = -1;
       });
  checkb "zero candidates rejected" true
    (bad { Chord.Stabilizer.default_config with Chord.Stabilizer.candidates = 0 });
  let bad_scenario c = raises_invalid (fun () -> Scenario.validate_config ~nodes:60 "test" c) in
  checkb "infinite zipf_s rejected" true
    (bad_scenario { Scenario.default_config with Scenario.zipf_s = infinity });
  List.iter
    (fun interval ->
      checkb (Printf.sprintf "interval %g rejected" interval) true
        (bad_scenario { Scenario.default_config with Scenario.interval }))
    [ infinity; nan; neg_infinity ];
  let other = chord_of e in
  let store = Chord.Store.create other ~keys:[| 1 |] in
  checkb "store over a different ring rejected" true
    (raises_invalid (fun () -> Chord.Stabilizer.create ~store chord e));
  (* Store accessor sanity on a fresh ring. *)
  let store = Chord.Store.create ~replicas:3 chord ~keys:(make_keys 31 16) in
  for i = 0 to 15 do
    let h = Chord.Store.holders store i in
    checki "primary plus 3 replicas" 4 (Array.length h);
    checki "primary leads the holder list" (Chord.Store.primary_of store i) h.(0);
    let distinct = List.sort_uniq compare (Array.to_list h) in
    checki "holders are distinct" (Array.length h) (List.length distinct);
    checkb "holds every holder" true
      (Array.for_all
         (fun node -> Chord.Store.holds store ~key:(Chord.Store.key store i) ~node)
         h)
  done;
  checkb "unknown key not held" false
    (Chord.Store.holds store ~key:12345 ~node:0)

(* ------------------------------------------------------------------ *)
(* Build: the per-slot finger rule                                      *)

(* [Chord.build]'s rule, written plainly and slot by slot: the nodes
   sorted by (id, index) form the ring, and clockwise from a point means
   from the first of them at or after it, found by a linear scan.  Slot
   [k]'s candidates are the first [candidates] nodes of the arc
   [id + 2^k, id + 2^(k+1)); [predict] picks the nearest of them other
   than the node (the first on ties, [nan] skipped), else the first of
   them is the finger.  An empty arc falls back to the first node at or
   after [id + 2^k].  Each table keeps each finger once, the one seen
   at the lowest slot last. *)
let reference_build ~candidates ~successor_list ?predict n =
  let ids = Array.init n Id_space.of_node in
  let ring = Array.of_list (List.sort compare (List.init n (fun m -> (ids.(m), m)))) in
  let at pos = snd ring.(pos mod n) in
  let start lo =
    let pos = ref 0 in
    while !pos < n && fst ring.(!pos) < lo do incr pos done;
    !pos mod n
  in
  let slot node k =
    let lo = Id_space.add ids.(node) (Id_space.power_offset k) in
    let span = if k + 1 >= Id_space.bits then 0 else Id_space.power_offset k in
    let s = start lo in
    let rec arc j =
      if j >= min candidates n || Id_space.distance_cw lo ids.(at (s + j)) >= span then []
      else at (s + j) :: arc (j + 1)
    in
    match arc 0 with
    | [] -> if at s = node then -1 else at s
    | first :: _ as cands ->
      let best =
        match predict with
        | None -> None
        | Some predict ->
          List.fold_left
            (fun acc c ->
              if c = node then acc
              else
                let p = predict node c in
                match acc with
                | _ when Float.is_nan p -> acc
                | Some (_, bp) when bp <= p -> acc
                | _ -> Some (c, p))
            None cands
      in
      (match best with Some (c, _) -> c | None -> if first = node then -1 else first)
  in
  let position = Array.make n 0 in
  Array.iteri (fun pos (_, m) -> position.(m) <- pos) ring;
  Array.init n (fun node ->
      let pos = position.(node) in
      let fingers =
        List.fold_left
          (fun seen k ->
            let f = slot node k in
            if f < 0 || List.mem f seen then seen else f :: seen)
          [] (List.init Id_space.bits Fun.id)
      in
      ( Array.of_list fingers,
        at (pos + 1),
        at (pos + n - 1),
        Array.init (min successor_list (n - 1)) (fun k -> at (pos + 1 + k)) ))

(* Two lossy, jittered engines over one world: a predictor that probes
   one answers differently if asked in a different order. *)
let engine_pair ~seed n =
  let m = Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:300. in
  let config =
    {
      Engine.default_config with
      Engine.fault = { Fault.default with Fault.loss = 0.1; jitter = 0.2 };
      seed;
    }
  in
  (Engine.of_matrix ~config m, Engine.of_matrix ~config m)

let prop_build_matches_reference (n, candidates, successor_list, (engine, seed)) =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let built_engine, reference_engine = engine_pair ~seed n in
  let predict e = if engine then Some (Engine.rtt e) else None in
  let chord = Chord.build ~candidates ~successor_list ?predict:(predict built_engine) n in
  let reference =
    reference_build ~candidates ~successor_list ?predict:(predict reference_engine) n
  in
  Array.iteri
    (fun node (fingers, succ, pred, succs) ->
      if Chord.fingers chord node <> fingers then fail "node %d: fingers differ" node;
      if Chord.successor chord node <> succ then fail "node %d: successor differs" node;
      if Chord.predecessor chord node <> pred then fail "node %d: predecessor differs" node;
      if Chord.successor_list chord node <> succs then
        fail "node %d: successor list differs" node)
    reference;
  let stats e = Format.asprintf "%a" Probe_stats.pp (Engine.stats e) in
  if stats built_engine <> stats reference_engine then
    fail "probes differ: %s vs %s" (stats built_engine) (stats reference_engine);
  true

let gen_build =
  QCheck2.Gen.(
    quad (int_range 2 600) (int_range 1 8) (int_range 1 8)
      (pair bool (int_range 0 9999)))

let () =
  Alcotest.run "dht_properties"
    [
      ( "convergence",
        [
          qcheck ~count:5 ~name:"ring converges after churn"
            QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 3))
            prop_ring_converges;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "heal = stabilizer when churn stops" `Quick
            test_heal_equivalence;
        ] );
      ( "inertness",
        [
          Alcotest.test_case "zero churn leaves no trace" `Quick
            test_zero_churn_inert;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "scheduled run is reproducible" `Quick
            test_scheduled_determinism;
        ] );
      ( "scenario",
        [
          qcheck ~count:20 ~name:"lookup accounting, clock, off arm inert, replay"
            gen_scenario prop_scenario;
        ] );
      ( "validation",
        [ Alcotest.test_case "config and store guards" `Quick test_validation ] );
      ( "build",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2007 + prop_seed |])
            (QCheck2.Test.make ~count:25 ~name:"fingers match the per-slot rule"
               gen_build prop_build_matches_reference);
        ] );
    ]
