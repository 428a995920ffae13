(* Dynamics and repair: not paper figures — extensions quantifying how
   time-varying network conditions move the paper's alert quality, and
   what churn-aware repair buys the protocol layers at default churn
   rates.  Companion to the test/test_repair.ml liveness suite. *)

module Rng = Tivaware_util.Rng
module Table = Tivaware_util.Table
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Probe_stats = Tivaware_measure.Probe_stats
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space

let engine_for ctx ?churn ?dynamics ~loss ~jitter () =
  Engine.of_matrix
    ~config:
      {
        Engine.fault = { Fault.default with Fault.loss; jitter; retries = 1 };
        profile = None;
        churn;
        dynamics;
        budget = None;
        cache_ttl = None;
        cache_capacity = None;
        charge_time = false;
        seed = ctx.Context.seed + 61;
      }
    (Context.matrix ctx)

(* ------------------------------------------------------------------ *)
(* Alert precision over the diurnal cycle                              *)

let dynamics ctx =
  Report.section "dynamics"
    "Time-varying profiles: TIV-alert precision over a diurnal cycle";
  Report.expectation
    "accuracy/recall at the loss/jitter peak (t=T/4) drop below the \
     static row and recover in the trough (t=3T/4); a route-flap \
     engine degrades accuracy by inflating measured RTTs";
  let system = Context.vivaldi ctx in
  let predicted i j = System.predicted system i j in
  let severity = Context.severity ctx in
  let evaluate engine =
    List.hd
      (Eval.evaluate_engine ~engine ~predicted ~severity ~worst_fraction:0.1
         ~thresholds:[ 0.5 ])
  in
  let table =
    Table.create
      ~header:[ "engine"; "clock"; "alerts"; "accuracy"; "recall"; "issued"; "lost" ]
  in
  let row label engine t =
    Engine.advance_to engine t;
    let p = evaluate engine in
    let st = Engine.stats engine in
    Table.add_row table
      [
        label;
        Printf.sprintf "%.0f" t;
        string_of_int p.Eval.alerts;
        Printf.sprintf "%.3f" p.Eval.accuracy;
        Printf.sprintf "%.3f" p.Eval.recall;
        string_of_int st.Probe_stats.issued;
        string_of_int st.Probe_stats.lost;
      ]
  in
  row "static" (engine_for ctx ~loss:0.05 ~jitter:0.1 ()) 0.;
  let period = 240. in
  let diurnal =
    {
      Dynamics.diurnal =
        Some
          {
            Dynamics.period;
            loss_amplitude = 0.8;
            jitter_amplitude = 0.8;
            phase = 0.;
          };
      route_flap = None;
      seed = ctx.Context.seed + 67;
    }
  in
  List.iter
    (fun frac ->
      (* Fresh engine per phase point so each row is a clean snapshot
         of the cycle, not an accumulation. *)
      row "diurnal"
        (engine_for ctx ~dynamics:diurnal ~loss:0.05 ~jitter:0.1 ())
        (frac *. period))
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  let flap =
    {
      Dynamics.diurnal = None;
      route_flap = Some { Dynamics.rate = 0.05; max_extra = 60. };
      seed = ctx.Context.seed + 67;
    }
  in
  row "routeflap"
    (engine_for ctx ~dynamics:flap ~loss:0.05 ~jitter:0.1 ())
    (period /. 2.);
  Table.print table

(* ------------------------------------------------------------------ *)
(* Repair ON vs OFF at default churn rates                             *)

(* One simulated service run: a churning engine advanced through
   [steps] maintenance rounds.  With repair ON the Meridian overlay
   runs ring maintenance and Chord runs successor healing each round;
   OFF leaves both structures as built.  The workload is identical in
   both arms (same seeds, same churn schedule): Meridian clients query
   through a start referred from a live host's rings — eviction is what
   keeps the referral pool live — and Chord lookups count as correct
   when they terminate at a node that is actually up. *)
let repair_arm ctx ~on =
  let m = Context.matrix ctx in
  let n = Matrix.size m in
  let churn = { Churn.default with Churn.seed = ctx.Context.seed + 71 } in
  let e = engine_for ctx ~churn ~loss:0. ~jitter:0. () in
  let nodes =
    Rng.sample_indices (Context.rng ctx 73) ~n ~k:(Context.meridian_count_ideal ctx)
  in
  let overlay =
    Overlay.build (Context.rng ctx 74) (Backend.dense m) (Ring.unlimited_config n)
      ~meridian_nodes:nodes
  in
  let chord =
    Chord.build ~successor_list:8 ~predict:(Engine.rtt ~label:"dht" e) n
  in
  let is_meridian s = Array.exists (( = ) s) nodes in
  let q_ok = ref 0 and q_total = ref 0 in
  let l_ok = ref 0 and l_total = ref 0 in
  for step = 1 to 8 do
    Engine.advance_to e (30. *. float_of_int step);
    if on then begin
      ignore (Overlay.repair_engine overlay e);
      ignore (Chord.heal_engine chord e)
    end;
    (* Referral pool: meridian members a live host still carries in its
       rings.  Without maintenance, dead members linger and get
       referred; with it, referrals are live and revived members come
       back after re-entry. *)
    let pool =
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun host ->
          if Engine.up e host then
            List.iter
              (fun mb ->
                if is_meridian mb.Overlay.id then
                  Hashtbl.replace seen mb.Overlay.id ())
              (Overlay.all_members overlay host))
        nodes;
      Array.of_list (Hashtbl.fold (fun s () acc -> s :: acc) seen [])
    in
    Array.sort compare pool;
    let pick = Rng.create ((ctx.Context.seed * 131) + step) in
    let tries = ref 0 in
    while !tries < 60 && Array.length pool > 0 do
      incr tries;
      let start = pool.(Rng.int pick (Array.length pool)) in
      let target = Rng.int pick n in
      if
        (not (is_meridian target))
        && Engine.up e target
        && not (Matrix.is_missing m start target)
      then begin
        incr q_total;
        let o = Query.closest overlay e ~start ~target in
        if not (Float.is_nan o.Query.chosen_delay) then incr q_ok
      end
    done;
    let lk = Rng.create ((ctx.Context.seed * 137) + step) in
    let lookups = ref 0 in
    while !lookups < 60 do
      let source = Rng.int lk n in
      if Engine.up e source then begin
        incr lookups;
        incr l_total;
        let key =
          Id_space.add (Id_space.of_node (Rng.int lk n)) (Rng.int lk 1_000_000)
        in
        let o = Chord.lookup chord (Backend.dense m) ~source ~key in
        if Engine.up e o.Chord.owner then incr l_ok
      end
    done
  done;
  (!q_ok, !q_total, !l_ok, !l_total, Engine.stats e)

let repair ctx =
  Report.section "repair"
    "Churn-aware repair: Meridian query success and Chord lookup \
     correctness, repair ON vs OFF";
  Report.expectation
    "at default churn rates both service metrics are strictly better \
     with repair ON, and the repair planes' probe costs appear in the \
     per-label accounting";
  let table =
    Table.create
      ~header:
        [
          "repair"; "meridian ok"; "success"; "chord ok"; "correct";
          "issued"; "down";
        ]
  in
  let arm label ~on =
    let q_ok, q_total, l_ok, l_total, st = repair_arm ctx ~on in
    Table.add_row table
      [
        label;
        Printf.sprintf "%d/%d" q_ok q_total;
        Printf.sprintf "%.1f%%" (100. *. float_of_int q_ok /. float_of_int (max 1 q_total));
        Printf.sprintf "%d/%d" l_ok l_total;
        Printf.sprintf "%.1f%%" (100. *. float_of_int l_ok /. float_of_int (max 1 l_total));
        string_of_int st.Probe_stats.issued;
        string_of_int st.Probe_stats.down;
      ];
    st
  in
  let _ = arm "off" ~on:false in
  let st = arm "on" ~on:true in
  Table.print table;
  Report.note "repair-plane probe accounting (ON arm):";
  List.iter
    (fun (l, k) -> Printf.printf "  %-16s %d\n" l k)
    (Probe_stats.labels st)

let register () =
  Registry.register "dynamics"
    "Time-varying profiles: alert precision over a diurnal cycle" dynamics;
  Registry.register "repair"
    "Churn-aware repair ON vs OFF at default churn rates" repair
