(* Golden-trace generator for the measurement plane.

   Emits deterministic digests of four end-to-end behaviours into
   [golden_*.actual] files; dune diffs them against the committed
   fixtures under [fixtures/] on every [dune runtest], so any drift in
   the RNG streams, the fault model, per-link profiles, churn schedules
   or the protocol layers above them shows up as a readable diff.
   After an intentional change, refresh the fixtures with
   [dune promote].

   Everything is seeded and float output is rounded, so the digests are
   stable across runs and (modulo libm last-ulp drift, which the small
   precision absorbs) across machines. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Severity = Tivaware_tiv.Severity
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Selectors = Tivaware_core.Selectors
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Sim = Tivaware_eventsim.Sim
module Zipf = Tivaware_util.Zipf
module Overlay = Tivaware_meridian.Overlay
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Chord = Tivaware_dht.Chord
module Multicast = Tivaware_overlay.Multicast
module Backend = Tivaware_backend.Delay_backend
module Store_ring = Tivaware_store.Ring
module Selection = Tivaware_tiv.Selection
module Store_scenario = Tivaware_store.Scenario

let n = 80
let world_seed = 7

let data = Datasets.generate ~size:n ~seed:world_seed Datasets.Ds2
let m = data.Generator.matrix
let cluster_of = data.Generator.cluster_of

let engine ?profile ?churn ?dynamics ?(charge_time = false) ~loss ~jitter ~seed
    () =
  Engine.of_matrix
    ~config:
      {
        Engine.fault =
          { Fault.default with Fault.loss; jitter; retries = 1 };
        profile;
        churn;
        dynamics;
        budget = None;
        cache_ttl = None;
        cache_capacity = None;
        charge_time;
        seed;
      }
    m

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ------------------------------------------------------------------ *)
(* Vivaldi: final coordinates and error estimates after embedding
   through a faulty engine. *)

let vivaldi () =
  with_file "golden_vivaldi.actual" (fun oc ->
      let e = engine ~loss:0.05 ~jitter:0.1 ~seed:11 () in
      let system =
        Selectors.embed_vivaldi_engine ~rounds:60 (Rng.create 13) e
      in
      Printf.fprintf oc "# vivaldi final coordinates: n=%d rounds=60 loss=0.05 jitter=0.10\n" n;
      for i = 0 to n - 1 do
        let c = System.coord system i in
        Printf.fprintf oc "%03d err=%.4f [%s]\n" i
          (System.error_estimate system i)
          (String.concat " "
             (Array.to_list (Array.map (Printf.sprintf "%.3f") c)))
      done;
      let st = Engine.stats e in
      Printf.fprintf oc "probes issued=%d lost=%d failed=%d\n"
        st.Probe_stats.issued st.Probe_stats.lost st.Probe_stats.failed)

(* ------------------------------------------------------------------ *)
(* Meridian: a query trace through a topology-derived profile. *)

let meridian () =
  with_file "golden_meridian.actual" (fun oc ->
      let profile = Profile.topology ~loss:0.1 ~jitter:0.2 ~cluster_of () in
      let e = engine ~profile ~loss:0.1 ~jitter:0.2 ~seed:17 () in
      let nodes = Rng.sample_indices (Rng.create 19) ~n ~k:24 in
      let cfg = Ring.unlimited_config n in
      let overlay = Selectors.meridian_build m cfg (Rng.create 23) nodes in
      Printf.fprintf oc
        "# meridian query trace: n=%d meridian=24 profile=topo loss=0.10 jitter=0.20\n"
        n;
      let pick = Rng.create 29 in
      for q = 0 to 39 do
        let start = nodes.(Rng.int pick (Array.length nodes)) in
        let target = Rng.int pick n in
        if Array.mem target nodes || Matrix.is_missing m start target then
          Printf.fprintf oc "q%02d start=%02d target=%02d skipped\n" q start
            target
        else begin
          let o =
            Query.closest ~termination:Query.Any_improvement overlay e ~start
              ~target
          in
          Printf.fprintf oc
            "q%02d start=%02d target=%02d chosen=%02d delay=%s probes=%d hops=%d path=%s\n"
            q start target o.Query.chosen
            (if Float.is_nan o.Query.chosen_delay then "nan"
             else Printf.sprintf "%.2f" o.Query.chosen_delay)
            o.Query.probes o.Query.hops
            (String.concat "," (List.map string_of_int o.Query.path))
        end
      done;
      let st = Engine.stats e in
      Printf.fprintf oc "probes issued=%d lost=%d failed=%d down=%d\n"
        st.Probe_stats.issued st.Probe_stats.lost st.Probe_stats.failed
        st.Probe_stats.down)

(* ------------------------------------------------------------------ *)
(* TIV alert: severity CDF digest and engine-measured alert quality. *)

let alert () =
  with_file "golden_alert.actual" (fun oc ->
      let severity = Severity.all m in
      let sev = Matrix.delays severity in
      Printf.fprintf oc "# tiv alert: severity CDF digest and alert sweep\n";
      Printf.fprintf oc "severity edges=%d\n" (Array.length sev);
      List.iter
        (fun p ->
          Printf.fprintf oc "severity p%02.0f=%.4f\n" p (Stats.percentile sev p))
        [ 10.; 25.; 50.; 75.; 90.; 99. ];
      let system = Selectors.embed_vivaldi (Rng.create 31) m in
      let e = engine ~loss:0.05 ~jitter:0.1 ~seed:37 () in
      let points =
        Eval.evaluate_engine ~engine:e
          ~predicted:(fun i j -> System.predicted system i j)
          ~severity ~worst_fraction:0.1 ~thresholds:Eval.default_thresholds
      in
      List.iter
        (fun p ->
          Printf.fprintf oc
            "threshold=%.1f alerts=%d accuracy=%.4f recall=%.4f\n"
            p.Eval.threshold p.Eval.alerts p.Eval.accuracy p.Eval.recall)
        points)

(* ------------------------------------------------------------------ *)
(* Profiles and churn: per-link parameters and a schedule digest. *)

let profile () =
  with_file "golden_profile.actual" (fun oc ->
      let topo = Profile.topology ~loss:0.1 ~jitter:0.2 ~cluster_of () in
      let random = Profile.random ~loss:0.1 ~jitter:0.2 ~seed:41 () in
      Printf.fprintf oc "# per-link profiles (sample links) and churn schedule\n";
      let pick = Rng.create 43 in
      for _ = 1 to 12 do
        let i = Rng.int pick n in
        let j = (i + 1 + Rng.int pick (n - 1)) mod n in
        let pr name p =
          let l = Profile.link p i j in
          Printf.fprintf oc
            "%s %02d->%02d loss=%.4f jitter=%.4f outage=%.1f extra=%.1f\n" name
            i j l.Profile.loss l.Profile.jitter l.Profile.outage
            l.Profile.extra_delay
        in
        pr "topo  " topo;
        pr "random" random
      done;
      let churn =
        Churn.create ~config:{ Churn.default with Churn.seed = 47 } ~n ()
      in
      let fault = Fault.create (Rng.create 0) ~n in
      Array.iter
        (fun t ->
          Churn.drive churn fault ~time:t;
          let up = ref 0 in
          let bits = Buffer.create n in
          for i = 0 to n - 1 do
            if Churn.is_up churn i then begin
              incr up;
              Buffer.add_char bits '1'
            end
            else Buffer.add_char bits '0'
          done;
          Printf.fprintf oc "churn t=%03.0f transitions=%d up=%d %s\n" t
            (Churn.transitions churn) !up (Buffer.contents bits))
        [| 0.; 30.; 60.; 120.; 240. |];
      (* A charged workload over a random profile with churn: the full
         stack (profile draws, outage windows, retry accounting, clock
         charging) in one digest. *)
      let e =
        engine ~profile:random
          ~churn:{ Churn.default with Churn.seed = 47 }
          ~charge_time:true ~loss:0.1 ~jitter:0.2 ~seed:53 ()
      in
      let wl = Rng.create 59 in
      for _ = 1 to 600 do
        let i = Rng.int wl n in
        let j = (i + 1 + Rng.int wl (n - 1)) mod n in
        ignore (Engine.rtt e i j)
      done;
      Printf.fprintf oc "workload clock=%.3f stats: %s\n" (Engine.now e)
        (Format.asprintf "%a" Probe_stats.pp (Engine.stats e)))

(* ------------------------------------------------------------------ *)
(* Dynamics: diurnal sweep snapshot and a route-flap workload digest. *)

let dynamics () =
  with_file "golden_dynamics.actual" (fun oc ->
      Printf.fprintf oc
        "# time-varying profiles: diurnal sweep and route-flap workload\n";
      (* Diurnal modulation of a topology profile, sampled at period
         fractions over one full cycle. *)
      let base = Profile.topology ~loss:0.1 ~jitter:0.2 ~cluster_of () in
      let d =
        Dynamics.create
          ~config:
            {
              Dynamics.diurnal =
                Some
                  {
                    Dynamics.period = 240.;
                    loss_amplitude = 0.8;
                    jitter_amplitude = 0.6;
                    phase = 0.;
                  };
              route_flap = None;
              seed = 61;
            }
          base
      in
      let pick = Rng.create 67 in
      let links =
        List.init 6 (fun _ ->
            let i = Rng.int pick n in
            (i, (i + 1 + Rng.int pick (n - 1)) mod n))
      in
      Array.iter
        (fun t ->
          Dynamics.advance_to d t;
          List.iter
            (fun (i, j) ->
              let l = Dynamics.link d i j in
              Printf.fprintf oc
                "diurnal t=%03.0f %02d->%02d loss=%.4f jitter=%.4f extra=%.1f\n"
                t i j l.Profile.loss l.Profile.jitter l.Profile.extra_delay)
            links)
        [| 0.; 60.; 120.; 180.; 240. |];
      (* A charged workload through a route-flapping engine: extra
         delays re-drawn mid-run show up in the clock, the stats and
         the route-change counter. *)
      let e =
        engine
          ~dynamics:
            {
              Dynamics.diurnal = None;
              route_flap = Some { Dynamics.rate = 0.05; max_extra = 50. };
              seed = 61;
            }
          ~charge_time:true ~loss:0.05 ~jitter:0.1 ~seed:71 ()
      in
      let wl = Rng.create 73 in
      for _ = 1 to 600 do
        let i = Rng.int wl n in
        let j = (i + 1 + Rng.int wl (n - 1)) mod n in
        ignore (Engine.rtt e i j)
      done;
      let de = Option.get (Engine.dynamics e) in
      Printf.fprintf oc "routeflap clock=%.3f route_changes=%d stats: %s\n"
        (Engine.now e) (Dynamics.route_changes de)
        (Format.asprintf "%a" Probe_stats.pp (Engine.stats e)))

(* ------------------------------------------------------------------ *)
(* Repair: a churn burst driven through all four protocol repair
   passes, with per-step convergence counters and the final per-label
   probe accounting. *)

let repair () =
  with_file "golden_repair.actual" (fun oc ->
      Printf.fprintf oc
        "# churn burst -> repair convergence (vivaldi/chord/meridian/multicast)\n";
      let churn =
        { Churn.fraction = 0.4; mean_up = 60.; mean_down = 120.; seed = 79 }
      in
      let e = engine ~churn ~loss:0. ~jitter:0. ~seed:83 () in
      let c = Option.get (Engine.churn e) in
      let sys = System.create_with_engine (Rng.create 89) e in
      let chord =
        Chord.build ~successor_list:8 ~predict:(Engine.rtt ~label:"dht" e) n
      in
      let nodes = Rng.sample_indices (Rng.create 97) ~n ~k:24 in
      let overlay =
        Overlay.build (Rng.create 101) (Backend.dense m) (Ring.unlimited_config n)
          ~meridian_nodes:nodes
      in
      let root =
        let r = ref (-1) in
        for i = n - 1 downto 0 do
          if not (Churn.churning c i) then r := i
        done;
        !r
      in
      let join_order =
        let rest =
          Array.of_list (List.filter (( <> ) root) (List.init n Fun.id))
        in
        Rng.shuffle (Rng.create 103) rest;
        Array.append [| root |] rest
      in
      let tree = Multicast.build e ~join_order in
      let tree_rng = Rng.create 107 in
      Array.iter
        (fun t ->
          Engine.advance_to e t;
          let up = ref 0 in
          for i = 0 to n - 1 do
            if Churn.is_up c i then incr up
          done;
          let v = Dynamic_neighbors.repair_neighbors sys in
          let h = Chord.heal_engine chord e in
          let r = Overlay.repair_engine overlay e in
          let mr = Multicast.repair tree tree_rng e in
          Printf.fprintf oc
            "t=%03.0f up=%02d | vivaldi ev=%d rs=%d | chord rerouted=%d \
             marked=%d revived=%d | meridian ev=%d re=%d pending=%d | \
             multicast det=%d att=%d rej=%d members=%d\n"
            t !up v.Dynamic_neighbors.evicted v.Dynamic_neighbors.resampled
            h.Chord.rerouted h.Chord.marked_dead h.Chord.revived
            r.Overlay.evicted r.Overlay.reentered
            (Overlay.pending_reentries overlay)
            mr.Multicast.detached mr.Multicast.reattached mr.Multicast.rejoined
            (List.length (Multicast.members tree)))
        [| 0.; 50.; 100.; 150.; 200.; 300.; 400. |];
      let st = Engine.stats e in
      Printf.fprintf oc "probes issued=%d down=%d unmeasured=%d labels: %s\n"
        st.Probe_stats.issued st.Probe_stats.down st.Probe_stats.unmeasured
        (String.concat " "
           (List.map
              (fun (l, k) -> Printf.sprintf "%s=%d" l k)
              (Probe_stats.labels st))))

(* ------------------------------------------------------------------ *)
(* Continuous stabilization: periodic stabilize/notify/fix-fingers as
   recurring simulator events under burst churn, with an arbitrated
   probe budget, key re-homing, and a Zipf lookup workload — the full
   background-vs-foreground stack in one digest. *)

let stabilize () =
  with_file "golden_stabilize.actual" (fun oc ->
      Printf.fprintf oc
        "# continuous chord stabilization under burst churn (arbitrated)\n";
      let churn =
        { Churn.fraction = 0.4; mean_up = 60.; mean_down = 120.; seed = 109 }
      in
      let e = engine ~churn ~loss:0. ~jitter:0. ~seed:113 () in
      let c = Option.get (Engine.churn e) in
      let chord =
        Chord.build ~successor_list:8 ~predict:(Engine.rtt ~label:"dht" e) n
      in
      let module Id_space = Tivaware_dht.Id_space in
      let krng = Rng.create 127 in
      (* spread over the whole id space; low bits carry the index so
         the 64 ids are distinct by construction *)
      let keys =
        Array.init 64 (fun i ->
            (Rng.int krng (Id_space.modulus lsr 6) lsl 6) lor i)
      in
      let store = Chord.Store.create ~replicas:2 chord ~keys in
      let arbiter =
        Arbiter.create
          (Arbiter.config ~capacity:400. ~rate:200.
             ~shares:[ ("chord_stabilize", 1.); ("dht", 3.) ])
      in
      let config =
        {
          Chord.Stabilizer.default_config with
          Chord.Stabilizer.interval = 5.;
          fingers_per_round = 4;
        }
      in
      let stab = Chord.Stabilizer.create ~config ~arbiter ~store chord e in
      let sim = Sim.create () in
      Chord.Stabilizer.schedule stab sim;
      let zipf = Zipf.create ~n:64 ~s:0.9 in
      (* Lookup hops are charged as probes on the dht plane. *)
      let probed = Backend.of_fn ~size:n (Engine.rtt ~label:"dht" e) in
      let wl = Rng.create 131 in
      let looked = ref 0 and correct = ref 0 in
      for i = 0 to 119 do
        Sim.schedule_at sim (float_of_int (i * 2) +. 1.5) (fun () ->
            let source = Rng.int wl n in
            let key = keys.(Zipf.sample zipf wl) in
            if Churn.is_up c source then begin
              incr looked;
              let l = Chord.lookup chord probed ~source ~key in
              if
                Churn.is_up c l.Chord.owner
                && Chord.Store.holds store ~key ~node:l.Chord.owner
              then incr correct
            end)
      done;
      Array.iter
        (fun t ->
          Sim.run sim ~until:t;
          let up = ref 0 in
          for i = 0 to n - 1 do
            if Churn.is_up c i then incr up
          done;
          let s = Chord.Stabilizer.totals stab in
          Printf.fprintf oc
            "t=%03.0f up=%02d rounds=%d checked=%d rerouted=%d marked=%d \
             revived=%d denied=%d migrated=%d rehomes=%d lookups=%d correct=%d\n"
            t !up s.Chord.Stabilizer.rounds s.Chord.Stabilizer.checked
            s.Chord.Stabilizer.rerouted s.Chord.Stabilizer.marked_dead
            s.Chord.Stabilizer.revived s.Chord.Stabilizer.denied
            (Chord.Store.migrated store) (Chord.Store.rehomes store) !looked
            !correct)
        [| 0.; 40.; 80.; 120.; 160.; 200.; 240. |];
      (* Structural spot checks: ring pointers and key placements. *)
      for u = 0 to 7 do
        let node = u * 10 in
        Printf.fprintf oc "node %02d succ=%02d pred=%02d fingers=%d\n" node
          (Chord.successor chord node)
          (Chord.predecessor chord node)
          (Array.length (Chord.fingers chord node))
      done;
      for i = 0 to 7 do
        let k = i * 8 in
        Printf.fprintf oc "key %02d primary=%02d holders=%s\n" k
          (Chord.Store.primary_of store k)
          (String.concat ","
             (List.map string_of_int
                (Array.to_list (Chord.Store.holders store k))))
      done;
      let st = Engine.stats e in
      Printf.fprintf oc "probes issued=%d down=%d unmeasured=%d labels: %s\n"
        st.Probe_stats.issued st.Probe_stats.down st.Probe_stats.unmeasured
        (String.concat " "
           (List.map
              (fun (l, k) -> Printf.sprintf "%s=%d" l k)
              (Probe_stats.labels st))))

(* ------------------------------------------------------------------ *)
(* Store: ring placement, a TIV-alerted read trace under churn and
   diurnal dynamics, and the arbitrated repair plane. *)

let store () =
  with_file "golden_store.actual" (fun oc ->
      Printf.fprintf oc
        "# store reads over a consistent-hashing ring (alert policy, \
         churn + diurnal dynamics, arbitrated repair)\n";
      let backend = Backend.dense m in
      let churn =
        { Churn.fraction = 0.25; mean_up = 50.; mean_down = 15.; seed = 151 }
      in
      let e =
        Backend.engine
          ~config:
            {
              Engine.fault =
                { Fault.default with Fault.loss = 0.03; jitter = 0.05; retries = 1 };
              profile = None;
              churn = Some churn;
              dynamics =
                Some
                  {
                    Dynamics.default with
                    Dynamics.diurnal = Some Dynamics.default_diurnal;
                    seed = 157;
                  };
              budget = None;
              cache_ttl = None;
              cache_capacity = None;
              charge_time = false;
              seed = 157;
            }
          backend
      in
      let system = Selectors.embed_vivaldi (Rng.create 163) m in
      let policy =
        Selection.alert (fun i j -> System.predicted system i j)
      in
      let config =
        {
          Store_scenario.default_config with
          Store_scenario.devices = 16;
          zones = 4;
          part_power = 5;
          replicas = 3;
          objects = 64;
          zipf_s = 0.9;
          reads = 100;
          duration = 100.;
          repair_interval = 10.;
          seed = 21;
        }
      in
      let arbiter =
        Arbiter.create
          (Arbiter.config ~capacity:24. ~rate:2.
             ~shares:[ ("store_repair", 1.); ("store", 1.) ])
      in
      let sc =
        Store_scenario.create ~arbiter ~config ~policy ~backend ~engine:e ()
      in
      let ring = Store_scenario.ring sc in
      let assigned id =
        let k = ref 0 in
        for p = 0 to Store_ring.parts ring - 1 do
          Array.iter (fun d -> if d = id then incr k) (Store_ring.assignment ring p)
        done;
        !k
      in
      Array.iter
        (fun (d : Store_ring.device) ->
          Printf.fprintf oc
            "device %02d node=%02d zone=%d weight=%.1f share=%.2f assigned=%d\n"
            d.Store_ring.id d.Store_ring.node d.Store_ring.zone
            d.Store_ring.weight
            (Store_ring.desired_share ring d.Store_ring.id)
            (assigned d.Store_ring.id))
        (Store_ring.devices ring);
      for p = 0 to Store_ring.parts ring - 1 do
        let ids a =
          String.concat ","
            (List.map string_of_int (Array.to_list a))
        in
        let ho = Store_ring.handoff ring p in
        Printf.fprintf oc "part %02d -> %s handoff=%s\n" p
          (ids (Store_ring.assignment ring p))
          (ids (Array.sub ho 0 (min 4 (Array.length ho))))
      done;
      let i = ref 0 in
      let result =
        Store_scenario.run
          ~trace:(fun (o : Store_scenario.read_outcome) ->
            incr i;
            Printf.fprintf oc
              "read %03d obj=%02d part=%02d client=%02d dev=%s lat=%.4f \
               probes=%d attempts=%d%s\n"
              !i o.Store_scenario.obj o.Store_scenario.part
              o.Store_scenario.client
              (match o.Store_scenario.device with
              | Some d -> Printf.sprintf "%02d" d
              | None -> "--")
              o.Store_scenario.latency_ms o.Store_scenario.probes
              o.Store_scenario.attempts
              (if o.Store_scenario.handoff then " handoff" else ""))
          ~repair_trace:(fun (r : Store_scenario.pass_outcome) ->
            Printf.fprintf oc
              "repair pass=%02d t=%05.1f checked=%d rehomed=%d restored=%d \
               denied=%d\n"
              r.Store_scenario.pass r.Store_scenario.time
              r.Store_scenario.checked r.Store_scenario.rehomed
              r.Store_scenario.restored r.Store_scenario.denied)
          sc
      in
      Printf.fprintf oc
        "result issued=%d completed=%d failed=%d skipped=%d handoffs=%d \
         dead_attempts=%d policy_probes=%d\n"
        result.Store_scenario.issued result.Store_scenario.completed
        result.Store_scenario.failed result.Store_scenario.skipped
        result.Store_scenario.handoffs result.Store_scenario.dead_attempts
        result.Store_scenario.policy_probes;
      let rt = result.Store_scenario.repair in
      Printf.fprintf oc
        "repair totals passes=%d checked=%d rehomed=%d restored=%d denied=%d\n"
        rt.Store_scenario.passes rt.Store_scenario.total_checked
        rt.Store_scenario.total_rehomed rt.Store_scenario.total_restored
        rt.Store_scenario.total_denied;
      let lat = result.Store_scenario.latencies in
      if Array.length lat > 0 then begin
        let lat = Array.copy lat in
        Array.sort compare lat;
        Printf.fprintf oc "latency p50=%.4f p90=%.4f p99=%.4f\n"
          (Stats.percentile lat 50.) (Stats.percentile lat 90.)
          (Stats.percentile lat 99.)
      end;
      let st = Engine.stats e in
      Printf.fprintf oc "probes issued=%d down=%d unmeasured=%d labels: %s\n"
        st.Probe_stats.issued st.Probe_stats.down st.Probe_stats.unmeasured
        (String.concat " "
           (List.map
              (fun (l, k) -> Printf.sprintf "%s=%d" l k)
              (Probe_stats.labels st))))

let () =
  vivaldi ();
  meridian ();
  alert ();
  profile ();
  dynamics ();
  repair ();
  stabilize ();
  store ()
