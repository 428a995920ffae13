(* tivbench — the end-to-end benchmark with per-layer attribution.

   Runs each workload in fresh child processes (this executable run
   again with --child), so peak RSS and GC state belong to one workload
   only.  A child sets the workload up for at least half a second,
   keeping the last world, then replays the same deterministic batch
   for its share of --seconds; every batch must reproduce the first
   one's deterministic metrics.  An untraced run is five such children
   one after another, which must agree on every deterministic metric:
   setup_s is the median of their set-up medians, ops_per_s the median
   of their batch rates.  With --trace one traced child follows; it
   records spans around the layer calls and replays the probe and clock
   paths on twin engines.  bench/e2e/README.md documents the workloads
   and metrics.

   Prints every metric with its unit, then, as the last line, one JSON
   object {correct, attempted, failed, metrics} holding the declared
   end-to-end metrics (untraced) or per-layer metrics (--trace).  Exits
   1 when an accounting identity, the determinism check or the
   finiteness check fails.

     dune exec --profile release bench/e2e/tivbench.exe -- \
       [--seed N] [--only W] [--seconds S] [--trace] [--json FILE] \
       [--trace-out FILE] [--quick] [--check-names BENCHMARK.json] *)

open Cmdliner
module H = Harness
module Json = Tivaware_obs.Json

let workloads : (module H.WORKLOAD) list =
  [ (module Store_churn); (module Stream_dense); (module Tivd_cached); (module Embed_lazy) ]

let name_of (module W : H.WORKLOAD) = W.name
let find_workload name = List.find_opt (fun w -> name_of w = name) workloads

(* ---------------------------------------------------------------- *)
(* Child: one workload, one mode                                     *)

type result = {
  workload : string;
  traced : bool;
  failures : string list;
  ops : int;
  batches : int;
  metrics : (string * float) list;  (** in catalogue order *)
}

let group_medians pairs =
  let names = List.sort_uniq compare (List.map fst pairs) in
  List.map
    (fun n -> (n, H.median (List.filter_map (fun (k, v) -> if k = n then Some v else None) pairs)))
    names

let setup_min_s = 0.5

let run_child (module W : H.WORKLOAD) ~seed ~seconds ~quick ~trace ~trace_out =
  let tracer = if trace then Some (H.new_tracer ()) else None in
  let ctx = { H.seed; quick; tracer } in
  let tracing on = Option.iter (fun tr -> tr.H.span.Span.on <- on) tracer in
  tracing false;
  (* Set-up, from nothing to a batch ready to run: the world plus the
     first batch's engine and scenario.  Repeated until [setup_min_s]
     have passed, keeping the last; the previous world is collected
     first, so peak RSS holds one.  The first set-up of a process also
     grows the heap, and the median of three or more discounts it. *)
  let rec set_up samples parts spent =
    Gc.full_major ();
    let (w, p, part), s =
      H.timed (fun () ->
          let w, part = W.setup ctx in
          (w, W.prepare ctx w, part))
    in
    if quick || spent +. s >= setup_min_s then (w, p, part @ parts, s :: samples)
    else set_up (s :: samples) (part @ parts) (spent +. s)
  in
  let w, first_batch, parts, setups = set_up [] [] 0. in
  (* Span-derived layer metrics, replays and the workload's extras. *)
  let span_metrics tr ~ops ~walls ~first_ops =
    let span = tr.H.span and f = float_of_int in
    let busy_ns = List.fold_left ( +. ) 0. walls *. 1e9 *. f W.domains in
    let backend_ns = Span.total_ns span "backend.query" in
    let predict_ns = Span.total_ns span "vivaldi.predict" in
    let queries = f (Span.count span "backend.query") in
    let predicts = f (Span.count span "vivaldi.predict") in
    let config, backend = W.replay ctx w in
    [
      ("backend.queries_per_op", Metric.ratio queries (f ops));
      ("backend.query_ns", Metric.ratio backend_ns queries);
      ("backend.share", Metric.ratio backend_ns busy_ns);
      ("scenario.self_ns_per_op", Metric.ratio (busy_ns -. backend_ns -. predict_ns) (f ops));
      ("measure.probe_ns", H.replay_probe_ns ~config backend tr.H.capture);
      ("measure.advance_ns", H.replay_advance_ns ~config backend tr.H.capture ~ops:first_ops);
    ]
    @ (if predicts > 0. then
         [
           ("vivaldi.predict_ns", predict_ns /. predicts);
           ("vivaldi.predicts_per_op", Metric.ratio predicts (f ops));
         ]
       else [])
    @ W.extras ctx w ~batch_s:(H.median walls)
  in
  (* Measured batches: the same deterministic work, at least once, and
     again while another batch fits in the time left. *)
  let deadline = Span.now_ns () +. (seconds *. 1e9) in
  let batches = ref [] and minor = ref 0. and promoted = ref 0. and majors = ref 0 in
  (* Peak RSS is read after the first batch: a fixed amount of work,
     whereas the number of batches depends on the machine's speed. *)
  let peak_rss = ref nan in
  let rec loop p =
    (* Every batch starts after a full collection, so its GC work does
       not depend on the garbage of the batches before.  Collecting also
       flushes the calling domain's allocation counts; joined worker
       domains have flushed theirs on exit. *)
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    tracing true;
    Option.iter (fun tr -> Span.enter tr.H.span "batch") tracer;
    let (), wall = H.timed p.H.run in
    Option.iter
      (fun tr ->
        Span.leave tr.H.span;
        tr.H.capture.H.recording <- false)
      tracer;
    tracing false;
    Gc.minor ();
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
    batches := (wall, p.H.create_s, p.H.finish ()) :: !batches;
    if Float.is_nan !peak_rss then peak_rss := H.peak_rss_mb ();
    if Span.now_ns () +. (wall *. 1e9) <= deadline then loop (W.prepare ctx w)
  in
  loop first_batch;
  let batches = List.rev !batches in
  let walls = List.map (fun (wall, _, _) -> wall) batches in
  let outcomes = List.map (fun (_, _, o) -> o) batches in
  let first = List.hd outcomes in
  let ops = List.fold_left (fun a o -> a + o.H.ops) 0 outcomes in
  let failures =
    List.concat
      (List.mapi
         (fun k o ->
           List.filter_map
             (fun (check, ok) ->
               if ok then None else Some (Printf.sprintf "batch %d: %s" (k + 1) check))
             o.H.checks
           @
           if List.filter (fun (n, _) -> Metric.is_det n) o.H.values
              = List.filter (fun (n, _) -> Metric.is_det n) first.H.values
           then []
           else [ Printf.sprintf "batch %d: deterministic metrics differ from batch 1" (k + 1) ])
         outcomes)
  in
  let f = float_of_int in
  let values =
    [
      ("setup_s", H.median setups);
      ( "ops_per_s",
        H.median (List.map2 (fun wall o -> f o.H.ops /. wall) walls outcomes) );
      ("peak_rss_mb", !peak_rss);
      ("gc.minor_words_per_op", Metric.ratio !minor (f ops));
      ("gc.promoted_words_per_op", Metric.ratio !promoted (f ops));
      ("gc.major_collections", f !majors);
      ( "gc.top_heap_mb",
        f ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
    ]
    @ group_medians parts
    @ (match List.filter_map (fun (_, c, _) -> c) batches with
      | [] -> []
      | cs -> [ ("scenario.create_s", H.median cs) ])
    @ List.filter (fun (n, _) -> Metric.is_det n) first.H.values
    @ group_medians
        (List.concat_map (fun o -> List.filter (fun (n, _) -> not (Metric.is_det n)) o.H.values) outcomes)
    @
    match tracer with
    | None -> []
    | Some tr -> span_metrics tr ~ops ~walls ~first_ops:first.H.ops
  in
  let metrics =
    List.filter_map
      (fun s -> Option.map (fun v -> (s.Metric.name, v)) (List.assoc_opt s.Metric.name values))
      Metric.catalogue
  in
  List.iter (fun (n, _) -> ignore (Metric.find n)) values;
  let failures =
    failures
    @ List.filter_map
        (fun (n, v) ->
          if Float.is_finite v then None else Some (Printf.sprintf "%s is not finite" n))
        metrics
  in
  (match (tracer, trace_out) with
  | Some tr, Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Span.write_jsonl tr.H.span ~workload:W.name oc;
    close_out oc
  | _ -> ());
  {
    workload = W.name;
    traced = trace;
    failures;
    ops;
    batches = List.length batches;
    metrics;
  }

(* ---------------------------------------------------------------- *)
(* Child <-> parent                                                  *)

let json_string s = Json.to_string ~indent:false (Json.String s)

let json_metrics metrics =
  "{"
  ^ String.concat ","
      (List.map (fun (n, v) -> Printf.sprintf "%s:%s" (json_string n) (Metric.json_number v)) metrics)
  ^ "}"

let result_to_json r =
  Printf.sprintf "{\"workload\":%s,\"traced\":%b,\"failures\":[%s],\"ops\":%d,\"batches\":%d,\"metrics\":%s}"
    (json_string r.workload) r.traced
    (String.concat "," (List.map json_string r.failures))
    r.ops r.batches (json_metrics r.metrics)

let result_of_json s =
  let j = Json.of_string s in
  let get k = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k) in
  let int k = match get k with Json.Int n -> n | _ -> failwith ("bad " ^ k) in
  let str = function Json.String s -> s | _ -> failwith "bad string" in
  {
    workload = str (get "workload");
    traced = get "traced" = Json.Bool true;
    failures = (match get "failures" with Json.List l -> List.map str l | _ -> []);
    ops = int "ops";
    batches = int "batches";
    metrics =
      (match get "metrics" with
      | Json.Obj kvs ->
        List.map (fun (k, v) -> (k, Option.value (Json.to_float v) ~default:nan)) kvs
      | _ -> []);
  }

let spawn ~workload ~seed ~seconds ~quick ~trace ~trace_out =
  let args =
    [ Sys.executable_name; "--child"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%h" seconds ]
    @ (if quick then [ "--quick" ] else [])
    @ (if trace then [ "--trace=1" ] else [])
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  (* A child that fails a check still prints its result and exits 1. *)
  match (status, result_of_json last) with
  | Unix.WEXITED (0 | 1), r -> r
  | _, r -> { r with failures = "child died" :: r.failures }
  | exception (Failure _ | Invalid_argument _) ->
    { workload; traced = trace; failures = [ "child printed no result" ]; ops = 0; batches = 0;
      metrics = [] }

(* An untraced run is split across [processes] fresh children, one
   after another, each with its share of the time.  Every child sets
   the workload up and runs its batches, so both are spread over the
   whole run, and a process that happens to run slow counts once.  The
   children must agree on every deterministic metric; every other
   metric is the median over them. *)
let processes = 5

let merge = function
  | [] -> invalid_arg "merge: no runs"
  | first :: _ as runs ->
    let values n = List.filter_map (fun r -> List.assoc_opt n r.metrics) runs in
    let disagree =
      List.filter_map
        (fun (n, v) ->
          if Metric.is_det n && List.exists (fun v' -> v' <> v) (values n) then
            Some (n ^ " differs between processes")
          else None)
        first.metrics
    in
    {
      first with
      failures = List.concat_map (fun r -> r.failures) runs @ disagree;
      ops = List.fold_left (fun a r -> a + r.ops) 0 runs;
      batches = List.fold_left (fun a r -> a + r.batches) 0 runs;
      metrics =
        List.map (fun (n, v) -> if Metric.is_det n then (n, v) else (n, H.median (values n))) first.metrics;
    }

(* ---------------------------------------------------------------- *)
(* Parent: combine, print, check                                     *)

type combined = {
  name : string;
  plain : result;
  trace : result option;
  all_failures : string list;
  values : (string * float) list;  (** plain first, then traced-only *)
}

(* A failed check reports success_frac as 0: no result of the run is
   trusted. *)
let combine name plain trace =
  let all_failures, values =
    match trace with
    | None -> (plain.failures, plain.metrics)
    | Some t ->
      let det_mismatch =
        List.filter_map
          (fun (n, v) ->
            match List.assoc_opt n t.metrics with
            | Some v' when Metric.is_det n && v <> v' ->
              Some (Printf.sprintf "%s differs between the untraced and traced runs" n)
            | _ -> None)
          plain.metrics
      in
      let overhead =
        match (List.assoc_opt "ops_per_s" plain.metrics, List.assoc_opt "ops_per_s" t.metrics) with
        | Some a, Some b -> [ ("trace.overhead_frac", Metric.ratio (a -. b) a) ]
        | _ -> []
      in
      let traced_only =
        List.filter (fun (n, _) -> not (List.mem_assoc n plain.metrics)) t.metrics
      in
      (plain.failures @ t.failures @ det_mismatch, plain.metrics @ traced_only @ overhead)
  in
  let values =
    if all_failures = [] then values
    else List.map (fun (n, v) -> (n, if n = "success_frac" then 0. else v)) values
  in
  { name; plain; trace; all_failures; values }

let tier_of n = (Metric.find n).Metric.tier
let declared_values c tier = List.filter (fun (n, _) -> tier_of n = tier) c.values

let print_human c =
  let line r =
    Printf.printf "%s (%s): %d batches, %d ops%s\n" c.name
      (if r.traced then "traced" else "untraced")
      r.batches r.ops
      (if r.failures = [] then "" else ", FAILED")
  in
  line c.plain;
  Option.iter line c.trace;
  List.iter
    (fun (n, v) ->
      let s = Metric.find n in
      let tag = match s.Metric.tier with Metric.E2e -> "e2e" | Layer -> "layer" | Extra -> "" in
      Printf.printf "  %-34s %18.6f %-10s %s\n" n v s.Metric.unit tag)
    c.values;
  List.iter (fun f -> Printf.eprintf "tivbench: %s: check failed: %s\n%!" c.name f) c.all_failures

(* The reader of BENCHMARK.json: its declared (name, unit) pairs. *)
let declared_in path section =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  match Json.member section j with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> failwith (section ^ ": entry without name/unit"))
      l
  | _ -> failwith ("no " ^ section ^ " list")

let valid_name n =
  n <> ""
  && String.for_all
       (fun ch ->
         match ch with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

(* Every workload must print exactly the declared names, with the
   declared units; names must be [A-Za-z0-9_.-]+. *)
let check_names path combined ~trace =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let compare_tier section tier =
    let declared = List.sort compare (declared_in path section) in
    List.iter (fun (n, _) -> if not (valid_name n) then problem "invalid name %S" n) declared;
    List.iter
      (fun c ->
        let printed =
          List.sort compare
            (List.map (fun (n, _) -> (n, (Metric.find n).Metric.unit)) (declared_values c tier))
        in
        if printed <> declared then
          problem "%s prints %s metrics [%s], %s declares [%s]" c.name section
            (String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) printed))
            path
            (String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) declared)))
      combined
  in
  (try
     compare_tier "end_to_end" Metric.E2e;
     if trace then compare_tier "per_layer" Metric.Layer
   with Failure msg | Sys_error msg -> problem "%s: %s" path msg);
  List.iter
    (fun c ->
      List.iter (fun (n, _) -> if not (valid_name n) then problem "invalid name %S" n) c.values)
    combined;
  List.rev !problems

(* ---------------------------------------------------------------- *)
(* Run stamp                                                         *)

(* The HEAD commit of the working directory, or "unknown" outside a git
   checkout. *)
let git_commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some sha -> String.trim sha
  | _ -> "unknown"

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match H.status_field "Cpus_allowed_list" with
  | None -> 0
  | Some list ->
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' range with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ _ ] -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' list)

let write_json path combined ~seed ~seconds ~quick =
  let workload c =
    Printf.sprintf "    %s: {\"untraced\":%s,\"traced\":%s,\"trace.overhead_frac\":%s}"
      (json_string c.name) (result_to_json c.plain)
      (match c.trace with Some t -> result_to_json t | None -> "null")
      (match List.assoc_opt "trace.overhead_frac" c.values with
      | Some v -> Metric.json_number v
      | None -> "null")
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"stamp\": {\"nproc\":%d,\"recommended_domain_count\":%d,\"ocaml\":%s,\"seed\":%d,\"seconds\":%s,\"quick\":%b,\"commit\":%s},\n  \"workloads\": {\n%s\n  }\n}\n"
    (nproc ())
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) seed (Metric.json_number seconds) quick
    (json_string (git_commit ()))
    (String.concat ",\n" (List.map workload combined));
  close_out oc

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)

let main seed only seconds trace json trace_out quick check child =
  let trace = trace <> 0 in
  let seconds = if quick then 0. else seconds in
  match child with
  | Some name -> (
    match find_workload name with
    | None ->
      prerr_endline ("tivbench: unknown workload " ^ name);
      2
    | Some wl ->
      let r = run_child wl ~seed ~seconds ~quick ~trace ~trace_out in
      print_endline (result_to_json r);
      if r.failures = [] then 0 else 1)
  | None -> (
    let selected =
      match only with
      | None -> Ok workloads
      | Some n -> Option.to_result ~none:n (Option.map (fun w -> [ w ]) (find_workload n))
    in
    match selected with
    | Error n ->
      Printf.eprintf "tivbench: unknown workload %s (known: %s)\n" n
        (String.concat ", " (List.map name_of workloads));
      2
    | Ok selected ->
      let combined =
        List.map
          (fun wl ->
            let workload = name_of wl in
            let run ~seconds trace = spawn ~workload ~seed ~seconds ~quick ~trace ~trace_out in
            let n = if quick then 1 else processes in
            let plain =
              merge (List.init n (fun _ -> run ~seconds:(seconds /. float_of_int n) false))
            in
            let traced = if trace then Some (run ~seconds true) else None in
            let c = combine workload plain traced in
            print_human c;
            c)
          selected
      in
      Option.iter (fun p -> write_json p combined ~seed ~seconds ~quick) json;
      let name_problems =
        match check with Some p -> check_names p combined ~trace | None -> []
      in
      List.iter (fun p -> Printf.eprintf "tivbench: name check failed: %s\n%!" p) name_problems;
      let tier = if trace then Metric.Layer else Metric.E2e in
      let attempted =
        List.fold_left
          (fun a c -> a + c.plain.ops + Option.fold ~none:0 ~some:(fun t -> t.ops) c.trace)
          0 combined
      in
      let correct =
        name_problems = []
        && List.for_all
             (fun c ->
               c.all_failures = []
               && List.for_all
                    (fun s -> List.mem_assoc s.Metric.name c.values)
                    (Metric.declared tier))
             combined
      in
      let key c n = if List.length combined = 1 then n else c.name ^ "/" ^ n in
      let metrics =
        List.concat_map
          (fun c ->
            List.map
              (fun (n, v) ->
                Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string (key c n))
                  (Metric.json_number v)
                  (json_string (Metric.find n).Metric.unit))
              (declared_values c tier))
          combined
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        correct (max 1 attempted)
        (if correct then 0 else max 1 attempted)
        (String.concat ", " metrics);
      if correct then 0 else 1)

let cmd =
  let seed =
    Arg.(value & opt int 2007 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only"; "workload" ] ~docv:"W"
          ~doc:"Run one workload: store-churn, stream-dense, tivd-cached or embed-lazy.")
  in
  let seconds =
    Arg.(
      value & opt float 10.
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Measure each workload for S seconds of repeated batches (at least one).")
  in
  let trace =
    Arg.(
      value & opt ~vopt:1 int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"Also run each workload traced and print the per-layer metrics.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write every metric of every run to FILE.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Append the kept span trees (1 op in 1000) to FILE as JSONL.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Tiny sizes, one set-up and one batch.")
  in
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-names" ] ~docv:"FILE"
          ~doc:"Fail unless the printed metric names and units equal those declared in FILE \
                (BENCHMARK.json).")
  in
  let child =
    Arg.(
      value
      & opt (some string) None
      & info [ "child" ] ~docv:"W" ~doc:"Internal: run workload W in this process.")
  in
  Cmd.v
    (Cmd.info "tivbench" ~doc:"End-to-end benchmark with per-layer attribution.")
    Term.(const main $ seed $ only $ seconds $ trace $ json $ trace_out $ quick $ check $ child)

let () = exit (Cmd.eval' cmd)
