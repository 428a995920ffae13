(* Continuous stabilization: not a paper figure — an extension
   quantifying what periodic stabilize/notify/fix-fingers buys a
   Chord keyspace under burst churn, as a function of the
   stabilization interval and of the probe budget carved out for the
   maintenance plane.  Companion to the test/test_dht_properties.ml
   invariant suite. *)

module Table = Tivaware_util.Table
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend
module Churn = Tivaware_measure.Churn
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Chord = Tivaware_dht.Chord
module Scenario = Tivaware_dht.Scenario

(* One service run of the Chord lookup scenario on a churning engine:
   300 Zipf lookups over 240 s against a 256-key keyspace.  With an
   [interval] the stabilizer runs (optionally token-gated by an arbiter
   [share]); without one the structure and placement stay as built,
   and churn erodes them.  The workload is identical across arms: same
   seeds, same churn schedule, same lookup times. *)
let arm ctx ?(interval = 0.) ?share () =
  let n = ctx.Context.size in
  let churn =
    { Churn.fraction = 0.3; mean_up = 60.; mean_down = 120.; seed = ctx.Context.seed + 83 }
  in
  let e =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.churn = Some churn;
          seed = ctx.Context.seed + 89;
        }
      (Context.matrix ctx)
  in
  let arbiter =
    Option.map
      (fun share ->
        (* A deliberately tight total so arbitration bites: a fraction
           of one probe per node-second, split between the maintenance
           plane and foreground lookups. *)
        let total = 2. *. float_of_int n in
        Arbiter.create
          (Arbiter.config ~capacity:total ~rate:(total /. 4.)
             ~shares:[ ("chord_stabilize", share); ("dht", 1. -. share) ]))
      share
  in
  let config =
    {
      Scenario.default_config with
      Scenario.keys = 256;
      lookups = 300;
      duration = 240.;
      interval;
      seed = ctx.Context.seed;
    }
  in
  let sc =
    Scenario.create ?arbiter ~config ~backend:(Backend.dense (Context.matrix ctx))
      ~engine:e ()
  in
  let r = Scenario.run sc in
  (r, Engine.stats e)

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
    let r, st = arm ctx ?interval ?share () in
    let issued = r.Scenario.issued and totals = r.Scenario.totals in
    let correct =
      100. *. float_of_int (issued - r.Scenario.wrong) /. float_of_int (max 1 issued)
    in
    Table.add_row table
      [
        label;
        (match share with None -> "-" | Some s -> Printf.sprintf "%.0f%%" (100. *. s));
        string_of_int issued;
        Printf.sprintf "%.1f%%" correct;
        string_of_int r.Scenario.migrated;
        string_of_int totals.Chord.Stabilizer.rounds;
        string_of_int totals.Chord.Stabilizer.denied;
        string_of_int (Probe_stats.label_count st "chord-stabilize");
        string_of_int (Probe_stats.label_count st "dht");
      ];
    (correct, st)
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
