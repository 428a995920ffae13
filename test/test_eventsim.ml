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
        ] );
    ]
