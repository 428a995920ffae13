(* Bench-regression gate: compare a freshly measured BENCH_measure.json
   against the committed baseline and fail on a real slowdown.

     perf_check BASELINE FRESH

   Raw ns/run numbers are not comparable across machines, so when both
   files carry the [measure/matrix-get-baseline] kernel every timing is
   first normalized by it — a uniformly 2x-slower CI runner then cancels
   out and only *relative* regressions of the measurement plane remain.
   A kernel present in the baseline but missing from the fresh run is a
   failure too (a silently dropped benchmark is not a speedup).  Only
   the "kernels" array is read; other fields, such as the host's
   "cores", are ignored. *)

module Json = Tivaware_obs.Json

(* The single declaration of the allowed slowdown: a kernel may be at
   most 25% slower (after normalization) than the committed baseline. *)
let tolerance = 0.25

let baseline_kernel = "measure/matrix-get-baseline"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf_check: " ^ s); exit 1) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error msg -> fail "%s" msg

let kernels_of path =
  let doc =
    try Json.of_string (read_file path)
    with Failure msg -> fail "%s: %s" path msg
  in
  match Json.member "kernels" doc with
  | Some (Json.List ks) ->
    List.map
      (fun k ->
        match (Json.member "name" k, Option.bind (Json.member "ns_per_run" k) Json.to_float) with
        | Some (Json.String name), Some ns when ns > 0. -> (name, ns)
        | _ -> fail "%s: malformed kernel entry" path)
      ks
  | _ -> fail "%s: no \"kernels\" array" path

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: perf_check BASELINE FRESH";
      exit 2
  in
  let baseline = kernels_of baseline_path in
  let fresh = kernels_of fresh_path in
  (* Normalize by the matrix-get kernel when both runs carry it. *)
  let norm kernels =
    match List.assoc_opt baseline_kernel kernels with
    | Some ns when List.mem_assoc baseline_kernel baseline
                   && List.mem_assoc baseline_kernel fresh -> ns
    | _ -> 1.
  in
  let base_unit = norm baseline and fresh_unit = norm fresh in
  if base_unit <> 1. then
    Printf.printf "normalizing by %s (baseline %.2f ns, fresh %.2f ns)\n"
      baseline_kernel base_unit fresh_unit;
  let failures = ref 0 in
  List.iter
    (fun (name, base_ns) ->
      match List.assoc_opt name fresh with
      | None ->
        incr failures;
        Printf.printf "FAIL %-32s missing from fresh run\n" name
      | Some fresh_ns ->
        let slowdown = fresh_ns /. fresh_unit /. (base_ns /. base_unit) in
        let verdict = if slowdown > 1. +. tolerance then "FAIL" else "ok  " in
        if verdict = "FAIL" then incr failures;
        Printf.printf "%s %-32s %9.2f -> %9.2f ns/run  (%+.0f%%)\n" verdict
          name base_ns fresh_ns ((slowdown -. 1.) *. 100.))
    baseline;
  if !failures > 0 then
    fail "%d kernel(s) regressed beyond %.0f%%" !failures (tolerance *. 100.)
  else
    Printf.printf "all %d kernels within %.0f%% of baseline\n"
      (List.length baseline) (tolerance *. 100.)
