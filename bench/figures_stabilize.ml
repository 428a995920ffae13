(* Continuous stabilization: not a paper figure — an extension
   quantifying what periodic stabilize/notify/fix-fingers buys a
   Chord keyspace under burst churn, as a function of the
   stabilization interval and of the probe budget carved out for the
   maintenance plane.  Companion to the test/test_dht_properties.ml
   invariant suite. *)

module Rng = Tivaware_util.Rng
module Table = Tivaware_util.Table
module Zipf = Tivaware_util.Zipf
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Sim = Tivaware_eventsim.Sim
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space

let duration = 240.
let lookup_count = 300
let key_count = 256

(* One service run: a churning engine, a Chord ring with a placed
   keyspace, and a Zipf lookup workload spread over [duration].  With
   an [interval] the stabilizer runs as staggered simulator events
   (optionally token-gated by an arbiter [share]); without one the
   structure and placement stay as built, and churn erodes them.  The
   workload is identical across arms: same seeds, same churn schedule,
   same lookup times. *)
let arm ctx ?interval ?share () =
  let n = ctx.Context.size in
  let churn =
    { Churn.fraction = 0.3; mean_up = 60.; mean_down = 120.; seed = ctx.Context.seed + 83 }
  in
  let e =
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
          seed = ctx.Context.seed + 89;
        }
      (Context.matrix ctx)
  in
  let c = Option.get (Engine.churn e) in
  let chord =
    Chord.build ~successor_list:8 ~predict:(Engine.rtt ~label:"dht" e) n
  in
  (* Lookup hops are charged as probes on the dht plane. *)
  let probed = Backend.of_fn ~size:n (Engine.rtt ~label:"dht" e) in
  let keys =
    let krng = Context.rng ctx 97 in
    Array.init key_count (fun i ->
        (Rng.int krng (Id_space.modulus lsr 10) lsl 10) lor i)
  in
  let store = Chord.Store.create ~replicas:2 chord ~keys in
  let sim = Sim.create () in
  let stab =
    match interval with
    | None ->
        (* No stabilizer: still slave the engine clock so churn moves
           with simulated time, exactly as Stabilizer.schedule would. *)
        Sim.on_advance sim (fun time -> Engine.advance_to e time);
        None
    | Some interval ->
        let arbiter =
          Option.map
            (fun share ->
              (* A deliberately tight total so arbitration bites: a
                 fraction of one probe per node-second, split between
                 the maintenance plane and foreground lookups. *)
              let total = 2. *. float_of_int n in
              Arbiter.create
                (Arbiter.config ~capacity:total ~rate:(total /. 4.)
                   ~shares:
                     [ ("chord_stabilize", share); ("dht", 1. -. share) ]))
            share
        in
        let config =
          { Chord.Stabilizer.default_config with Chord.Stabilizer.interval }
        in
        let stab = Chord.Stabilizer.create ~config ?arbiter ~store chord e in
        Chord.Stabilizer.schedule stab sim;
        Some stab
  in
  let zipf = Zipf.create ~n:key_count ~s:0.9 in
  let wl = Context.rng ctx 101 in
  let issued = ref 0 and correct = ref 0 in
  for i = 0 to lookup_count - 1 do
    let at = duration *. float_of_int (i + 1) /. float_of_int (lookup_count + 1) in
    Sim.schedule_at sim at (fun () ->
        let source = Rng.int wl n in
        let key = keys.(Zipf.sample zipf wl) in
        if Churn.is_up c source then begin
          incr issued;
          let o = Chord.lookup chord probed ~source ~key in
          if Churn.is_up c o.Chord.owner
             && Chord.Store.holds store ~key ~node:o.Chord.owner
          then incr correct
        end)
  done;
  Sim.run sim ~until:duration;
  let totals =
    match stab with
    | Some s -> Chord.Stabilizer.totals s
    | None ->
        { Chord.Stabilizer.rounds = 0; checked = 0; rerouted = 0;
          marked_dead = 0; revived = 0; denied = 0 }
  in
  (!issued, !correct, Chord.Store.migrated store, totals, Engine.stats e)

let stabilize ctx =
  Report.section "stabilize"
    "Continuous stabilization: Chord lookup correctness under burst \
     churn vs stabilization interval and probe share";
  Report.expectation
    "with a short interval lookups find the live owner holding the key \
     >= 99%% of the time; without stabilization correctness is \
     measurably degraded; a token-gated arm shows denied rounds and a \
     visible per-plane probe split";
  let table =
    Table.create
      ~header:
        [
          "stabilize"; "share"; "lookups"; "correct"; "migrated";
          "rounds"; "denied"; "stab probes"; "dht probes";
        ]
  in
  let row label ?interval ?share () =
    let issued, correct, migrated, totals, st = arm ctx ?interval ?share () in
    Table.add_row table
      [
        label;
        (match share with None -> "-" | Some s -> Printf.sprintf "%.0f%%" (100. *. s));
        string_of_int issued;
        Printf.sprintf "%.1f%%"
          (100. *. float_of_int correct /. float_of_int (max 1 issued));
        string_of_int migrated;
        string_of_int totals.Chord.Stabilizer.rounds;
        string_of_int totals.Chord.Stabilizer.denied;
        string_of_int (Probe_stats.label_count st "chord-stabilize");
        string_of_int (Probe_stats.label_count st "dht");
      ];
    (100. *. float_of_int correct /. float_of_int (max 1 issued), st)
  in
  let off, _ = row "off" () in
  let on, _ = row "2s" ~interval:2. () in
  let _ = row "10s" ~interval:10. () in
  let _ = row "30s" ~interval:30. () in
  let _, gated = row "2s" ~interval:2. ~share:0.25 () in
  Table.print table;
  Report.measured "correctness %.1f%% stabilized vs %.1f%% off" on off;
  Report.note "per-label probe accounting (token-gated arm):";
  List.iter
    (fun (l, k) -> Printf.printf "  %-16s %d\n" l k)
    (Probe_stats.labels gated)

let register () =
  Registry.register "stabilize"
    "Continuous Chord stabilization vs interval and probe share" stabilize
