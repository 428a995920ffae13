(* Tests for the discrete-event simulation engine. *)

module Sim = Tivaware_eventsim.Sim

let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 3. (fun () -> log := 3 :: !log);
  Sim.schedule_at sim 1. (fun () -> log := 1 :: !log);
  Sim.schedule_at sim 2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3. (Sim.now sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 1. (fun () -> log := "a" :: !log);
  Sim.schedule_at sim 1. (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "fifo among equal times" [ "a"; "b" ]
    (List.rev !log)

let test_schedule_after () =
  let sim = Sim.create () in
  let fired_at = ref (-1.) in
  Sim.schedule_at sim 5. (fun () ->
      Sim.schedule_after sim 2.5 (fun () -> fired_at := Sim.now sim));
  Sim.run sim;
  checkf "relative scheduling" 7.5 !fired_at

let test_past_raises () =
  let sim = Sim.create () in
  Sim.schedule_at sim 10. (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Sim.schedule_at: time 5 is before now 10")
        (fun () -> Sim.schedule_at sim 5. (fun () -> ())));
  Sim.run sim

let test_negative_delay_raises () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      Sim.schedule_after sim (-1.) (fun () -> ()))

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.schedule_at sim t (fun () -> fired := t :: !fired))
    [ 1.; 2.; 8.; 9. ];
  Sim.run ~until:5. sim;
  Alcotest.(check (list (float 0.))) "only early events" [ 1.; 2. ]
    (List.rev !fired);
  checkf "clock advanced to limit" 5. (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list (float 0.))) "late events run next" [ 1.; 2.; 8.; 9. ]
    (List.rev !fired)

let test_run_until_boundary () =
  (* An event scheduled exactly at the limit executes. *)
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule_at sim 5. (fun () -> fired := true);
  Sim.run ~until:5. sim;
  Alcotest.(check bool) "boundary event fires" true !fired

let test_cascading () =
  (* A chain of events, each scheduling the next: models a query hopping
     through an overlay. *)
  let sim = Sim.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 10 then Sim.schedule_after sim 1.5 hop
  in
  Sim.schedule_at sim 0. hop;
  Sim.run sim;
  Alcotest.(check int) "all hops" 10 !hops;
  checkf "clock = 9 hops * 1.5" 13.5 (Sim.now sim)

let test_interleaved_processes () =
  (* Two periodic processes with different periods interleave correctly. *)
  let sim = Sim.create () in
  let log = ref [] in
  let rec proc name period stop () =
    log := (name, Sim.now sim) :: !log;
    if Sim.now sim +. period <= stop then
      Sim.schedule_after sim period (proc name period stop)
  in
  Sim.schedule_at sim 0. (proc "fast" 1. 3.);
  Sim.schedule_at sim 0. (proc "slow" 2. 4.);
  Sim.run sim;
  let names = List.map fst (List.rev !log) in
  (* t=0: fast, slow; t=1: fast; t=2: slow (scheduled at t=0, so earlier
     seq) then fast; t=3: fast; t=4: slow. *)
  Alcotest.(check (list string)) "interleaving"
    [ "fast"; "slow"; "fast"; "slow"; "fast"; "fast"; "slow" ]
    names

let test_nan_time_rejected () =
  (* A [nan] time would sit atop the heap and stall every later event. *)
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter (fun t -> Sim.schedule_at sim t (fun () -> fired := t :: !fired)) [ 1.; 2.; 5. ];
  Alcotest.check_raises "schedule_at" (Invalid_argument "Sim.schedule_at: time is nan")
    (fun () -> Sim.schedule_at sim nan ignore);
  Alcotest.check_raises "schedule_after" (Invalid_argument "Sim.schedule_after: time is nan")
    (fun () -> Sim.schedule_after sim nan ignore);
  Alcotest.check_raises "schedule_every start"
    (Invalid_argument "Sim.schedule_every: time is nan") (fun () ->
      Sim.schedule_every sim ~start:nan ~every:1. (fun () -> false));
  Sim.run ~until:10. sim;
  Alcotest.(check (list (float 0.))) "every event ran" [ 1.; 2.; 5. ] (List.rev !fired);
  checkf "clock at the limit" 10. (Sim.now sim)

let test_sequence () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 2. (fun () -> log := "at" :: !log);
  Sim.schedule_sequence sim ~count:3
    ~time:(fun i -> float_of_int (i + 1))
    (fun i -> log := Printf.sprintf "seq%d@%g" i (Sim.now sim) :: !log);
  Sim.schedule_sequence sim ~count:0 ~time:(fun _ -> Alcotest.fail "time read") (fun _ ->
      Alcotest.fail "event ran");
  Sim.run sim;
  (* The sequence was registered after the 2 s event: it runs second
     at the tie, as a [schedule_at] made then would. *)
  Alcotest.(check (list string)) "order" [ "seq0@1"; "at"; "seq1@2"; "seq2@3" ] (List.rev !log)

let test_sequence_rejects () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Sim.schedule_sequence: count -1 is negative") (fun () ->
      Sim.schedule_sequence sim ~count:(-1) ~time:(fun _ -> 0.) ignore);
  Alcotest.check_raises "nan first time" (Invalid_argument "Sim.schedule_sequence: time is nan")
    (fun () -> Sim.schedule_sequence sim ~count:1 ~time:(fun _ -> nan) ignore);
  let ran = ref [] in
  Sim.schedule_sequence sim ~count:3
    ~time:(fun i -> [| 1.; 2.; 1.5 |].(i))
    (fun i -> ran := i :: !ran);
  Alcotest.check_raises "time backwards"
    (Invalid_argument "Sim.schedule_sequence: time 1.5 is before now 2") (fun () -> Sim.run sim);
  Alcotest.(check (list int)) "events before the bad time ran" [ 0 ] (List.rev !ran)

(* --- schedule_sequence against one push per event --- *)

(* A registration, times in half-second units: one event, a periodic
   task (start, period, firings), or a sequence (non-decreasing times,
   possibly none).  [follow]: each of its events schedules a follow-up
   at the current time. *)
type reg =
  | At of int * bool
  | Every of int * int * int * bool
  | Seq of int list * bool

let unit_s = 0.5

let print_reg = function
  | At (t, f) -> Printf.sprintf "At(%d,%b)" t f
  | Every (s, e, n, f) -> Printf.sprintf "Every(%d,%d,%d,%b)" s e n f
  | Seq (ts, f) -> Printf.sprintf "Seq([%s],%b)" (String.concat ";" (List.map string_of_int ts)) f

let gen_reg =
  QCheck2.Gen.(
    let* follow = bool in
    oneof
      [
        map (fun t -> At (t, follow)) (int_bound 12);
        map3 (fun s e n -> Every (s, e, n, follow)) (int_bound 8) (int_range 1 4) (int_range 1 4);
        map2
          (fun start gaps ->
            let ts = List.rev (snd (List.fold_left (fun (t, acc) d -> (t + d, (t + d) :: acc)) (start, []) gaps)) in
            Seq (ts, follow))
          (int_bound 8)
          (list_size (int_bound 6) (int_bound 2));
      ])

(* The program's event log: (registration, event, time), follow-ups as
   event [-1 - i], and a [(-1, 0, now)] mark after an [until] run.
   [expand] schedules each sequence event by [schedule_at] at
   registration instead of by [schedule_sequence]. *)
let play ~expand (regs, until) =
  let sim = Sim.create () and log = ref [] in
  let fire r i follow =
    log := (r, i, Sim.now sim) :: !log;
    if follow then Sim.schedule_at sim (Sim.now sim) (fun () -> log := (r, -1 - i, Sim.now sim) :: !log)
  in
  List.iteri
    (fun r reg ->
      match reg with
      | At (t, follow) -> Sim.schedule_at sim (float_of_int t *. unit_s) (fun () -> fire r 0 follow)
      | Every (start, every, n, follow) ->
          let fired = ref 0 in
          Sim.schedule_every sim ~start:(float_of_int start *. unit_s)
            ~every:(float_of_int every *. unit_s) (fun () ->
              fire r !fired follow;
              incr fired;
              !fired < n)
      | Seq (ts, follow) ->
          let ts = Array.of_list (List.map (fun t -> float_of_int t *. unit_s) ts) in
          if expand then Array.iteri (fun i t -> Sim.schedule_at sim t (fun () -> fire r i follow)) ts
          else
            Sim.schedule_sequence sim ~count:(Array.length ts) ~time:(Array.get ts) (fun i ->
                fire r i follow))
    regs;
  Option.iter
    (fun u ->
      Sim.run sim ~until:(float_of_int u *. unit_s);
      log := (-1, 0, Sim.now sim) :: !log)
    until;
  Sim.run sim;
  List.rev !log

let prop_sequence_matches_pushes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"a sequence pops as its events pushed one by one"
       ~print:(fun (regs, until) ->
         Printf.sprintf "[%s] until=%s" (String.concat "; " (List.map print_reg regs))
           (match until with Some u -> string_of_int u | None -> "-"))
       QCheck2.Gen.(pair (list_size (int_range 1 8) gen_reg) (opt (int_bound 14)))
       (fun program -> play ~expand:false program = play ~expand:true program))

let () =
  Alcotest.run "eventsim"
    [
      ( "sim",
        [
          Alcotest.test_case "time order" `Quick test_time_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "schedule_after" `Quick test_schedule_after;
          Alcotest.test_case "past raises" `Quick test_past_raises;
          Alcotest.test_case "negative delay raises" `Quick test_negative_delay_raises;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run until boundary" `Quick test_run_until_boundary;
          Alcotest.test_case "cascading events" `Quick test_cascading;
          Alcotest.test_case "interleaved processes" `Quick test_interleaved_processes;
          Alcotest.test_case "nan time rejected" `Quick test_nan_time_rejected;
          Alcotest.test_case "sequence" `Quick test_sequence;
          Alcotest.test_case "sequence rejects" `Quick test_sequence_rejects;
          prop_sequence_matches_pushes;
        ] );
    ]
