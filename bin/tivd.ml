(* tivd — the sustained-load query-serving harness.

   Serves a seeded mixed stream of Meridian closest-node queries, Chord
   lookups and multicast refresh passes against a delay backend, sharded
   across OCaml domains (one world + engine + metric registry per
   domain), and reports one deterministic merged summary.

   The summary written by --report depends only on the spec and the
   domain count — never on scheduling or wall-clock — so CI can diff it
   against a committed fixture; throughput (wall-clock qps) is printed
   to stdout only. *)

open Cmdliner
module Obs = Tivaware_obs
module Workload = Tivaware_service.Workload
module Shard = Tivaware_service.Shard
module Driver = Tivaware_service.Driver

let prog = "tivd"

let kind_counter obs name kind =
  Obs.Counter.value
    (Obs.Registry.counter obs
       ~labels:[ ("kind", Workload.kind_label kind) ]
       name)

let kind_latency obs kind =
  Obs.Registry.histogram obs
    ~labels:[ ("kind", Workload.kind_label kind) ]
    ~edges:Shard.latency_edges "service.latency_ms"

(* A quantile past the last bucket edge is only a lower bound. *)
let latency h q =
  let v = Harness.number 1 (Obs.Histogram.quantile h q) in
  if Obs.Histogram.overflowed h q then ">" ^ v else v

let print_summary result wall =
  let obs = result.Driver.obs in
  let served =
    Array.fold_left
      (fun acc k -> acc +. kind_counter obs "service.queries" k)
      0. Workload.kinds
  in
  Format.printf "tivd: served %.0f queries over %d domain%s in %.2f s (%.0f qps)@."
    served result.Driver.domains
    (if result.Driver.domains = 1 then "" else "s")
    wall
    (if wall > 0. then served /. wall else 0.);
  Array.iter
    (fun kind ->
      let q = kind_counter obs "service.queries" kind in
      let f = kind_counter obs "service.failures" kind in
      let h = kind_latency obs kind in
      Format.printf
        "  %-10s %6.0f queries, %.0f failures, latency p50=%s p99=%s ms@."
        (Workload.kind_label kind) q f
        (latency h 0.5) (latency h 0.99))
    Workload.kinds;
  let switches = Obs.Counter.value (Obs.Registry.counter obs "service.switches") in
  let hops =
    Obs.Registry.histogram obs ~edges:Shard.hops_edges "service.hops"
  in
  Format.printf "  dht hops mean=%s, refresh switches=%.0f, clock=%.1f s@."
    (Harness.number 2 (Obs.Histogram.mean hops))
    switches result.Driver.clock

let run domains queries rate mix world meridian candidate_budget beta meas
    sequential report =
  try
    let seed = world.Harness.seed in
    let make_backend = Harness.backend_factory ~prog world in
    let spec =
      {
        Shard.seed;
        engine_config = Harness.engine_config meas ~seed;
        make_backend = (fun () -> fst (make_backend ()));
        meridian_count = meridian;
        candidate_budget =
          (if candidate_budget <= 0 then None else Some candidate_budget);
        beta;
        rate = (if rate <= 0. then None else Some rate);
        mix;
        queries;
      }
    in
    let t0 = Unix.gettimeofday () in
    let result =
      if sequential then Driver.run_sequential spec
      else Driver.run ~domains spec
    in
    let wall = Unix.gettimeofday () -. t0 in
    print_summary result wall;
    Harness.write_summary
      ~announce:(Printf.sprintf "summary written to %s")
      ~clock:result.Driver.clock result.Driver.obs report;
    0
  with Invalid_argument msg | Sys_error msg -> Harness.usage_error ~prog msg

(* ---------------------------------------------------------------- *)
(* Arguments                                                         *)

let mix_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ c; d; m ] -> (
      match (int_of_string_opt c, int_of_string_opt d, int_of_string_opt m) with
      | Some closest, Some dht, Some multicast -> (
        let mix = { Workload.closest; dht; multicast } in
        match Workload.validate_mix mix with
        | () -> Ok mix
        | exception Invalid_argument msg -> Error (`Msg msg))
      | _ -> Error (`Msg (Printf.sprintf "invalid mix %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "mix must be C:D:M, got %S" s))
  in
  let print ppf m =
    Format.fprintf ppf "%d:%d:%d" m.Workload.closest m.Workload.dht
      m.Workload.multicast
  in
  Arg.conv (parse, print)

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains the query stream is sharded across.")

let queries_arg =
  Arg.(
    value & opt int 2000
    & info [ "queries" ] ~docv:"N" ~doc:"Total queries in the stream.")

let rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "rate" ] ~docv:"R"
        ~doc:"Open-loop Poisson arrival rate in queries/second (0 = \
              closed loop: back-to-back queries, no arrival clock).")

let mix_arg =
  Arg.(
    value & opt mix_conv Workload.default_mix
    & info [ "mix" ] ~docv:"C:D:M"
        ~doc:"Relative weights of closest:dht:multicast queries.")

let matrix_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "matrix" ] ~docv:"FILE"
        ~doc:"Delay matrix to serve (dense) or to measure the DS2 model \
              from (lazy); omitted = a generated DS2 space.")

let nodes_arg =
  Arg.(
    value & opt int 400
    & info [ "nodes" ] ~docv:"N" ~doc:"Delay-space node count.")

let meridian_arg =
  Arg.(
    value & opt int 32
    & info [ "meridian" ] ~docv:"N"
        ~doc:"Meridian participants sampled from the space.")

let candidate_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "candidate-budget" ] ~docv:"N"
        ~doc:"Ring-construction discovery budget per Meridian node \
              (0 = unbounded, scans all participants).")

let beta_arg =
  Arg.(
    value & opt float 0.5
    & info [ "beta" ] ~docv:"F" ~doc:"Meridian acceptance threshold.")

let sequential_arg =
  Arg.(
    value & flag
    & info [ "sequential" ]
        ~doc:"Run the reference sequential driver on the calling domain \
              (ignores $(b,--domains); the bit-identity baseline for \
              $(b,--domains 1)).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the merged observability summary as JSON.")

let cmd =
  let term =
    Term.(
      const run $ domains_arg $ queries_arg $ rate_arg $ mix_arg
      $ Harness.world_term ~matrix:matrix_arg ~nodes:nodes_arg
      $ meridian_arg $ candidate_budget_arg $ beta_arg $ Harness.meas_term
      $ sequential_arg $ report_arg)
  in
  Cmd.v
    (Cmd.info "tivd" ~version:"%%VERSION%%"
       ~doc:"Multicore sustained-load query serving over a delay backend.")
    term

let () = exit (Cmd.eval' cmd)
