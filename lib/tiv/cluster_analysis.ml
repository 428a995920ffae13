module Matrix = Tivaware_delay_space.Matrix
module Clustering = Tivaware_delay_space.Clustering
module Stats = Tivaware_util.Stats

type block = {
  row_cluster : int;
  col_cluster : int;
  edges : int;
  mean_severity : float;
  p90_severity : float;
}

type t = {
  blocks : block list;
  within_mean_violations : float;
  cross_mean_violations : float;
  within_mean_severity : float;
  cross_mean_severity : float;
}

let analyze_with ~severity ~counts assignment =
  let label = assignment.Clustering.label in
  let k = Array.length assignment.Clustering.clusters in
  (* Cluster ids 0..k-1 plus the noise cluster mapped to index k. *)
  let idx l = if l < 0 then k else l in
  let nblocks = k + 1 in
  let samples = Array.make_matrix nblocks nblocks [] in
  Matrix.iter_edges severity (fun i j s ->
      let a = idx label.(i) and b = idx label.(j) in
      let a, b = if a <= b then (a, b) else (b, a) in
      samples.(a).(b) <- s :: samples.(a).(b));
  let blocks = ref [] in
  for a = nblocks - 1 downto 0 do
    for b = nblocks - 1 downto a do
      match samples.(a).(b) with
      | [] -> ()
      | l ->
        let arr = Array.of_list l in
        blocks :=
          {
            row_cluster = (if a = k then -1 else a);
            col_cluster = (if b = k then -1 else b);
            edges = Array.length arr;
            mean_severity = Stats.mean arr;
            p90_severity = Stats.percentile arr 90.;
          }
          :: !blocks
    done
  done;
  (* Within vs cross statistics over severities... *)
  let within_sev = ref [] and cross_sev = ref [] in
  Matrix.iter_edges severity (fun i j s ->
      if label.(i) >= 0 && label.(i) = label.(j) then within_sev := s :: !within_sev
      else cross_sev := s :: !cross_sev);
  (* ... and over violation counts (includes zero-violation edges). *)
  let within_viol = ref 0 and cross_viol = ref 0 in
  let within_edges = ref 0 and cross_edges = ref 0 in
  Matrix.iter_edges severity (fun i j _ ->
      if label.(i) >= 0 && label.(i) = label.(j) then incr within_edges
      else incr cross_edges);
  Array.iter
    (fun (i, j, c) ->
      if label.(i) >= 0 && label.(i) = label.(j) then within_viol := !within_viol + c
      else cross_viol := !cross_viol + c)
    counts;
  let safe_div a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  {
    blocks = !blocks;
    within_mean_violations = safe_div !within_viol !within_edges;
    cross_mean_violations = safe_div !cross_viol !cross_edges;
    within_mean_severity = Stats.mean (Array.of_list !within_sev);
    cross_mean_severity = Stats.mean (Array.of_list !cross_sev);
  }

let pp ppf t =
  Format.fprintf ppf
    "within: mean_sev=%.4f mean_viol=%.1f  cross: mean_sev=%.4f mean_viol=%.1f@."
    t.within_mean_severity t.within_mean_violations t.cross_mean_severity
    t.cross_mean_violations;
  List.iter
    (fun b ->
      Format.fprintf ppf "  block (%d,%d): edges=%d mean=%.4f p90=%.4f@."
        b.row_cluster b.col_cluster b.edges b.mean_severity b.p90_severity)
    t.blocks

let shade_matrix ~severity assignment ~cells =
  assert (cells > 0);
  let order = Clustering.reorder assignment in
  let n = Array.length order in
  let sums = Array.make_matrix cells cells 0. in
  let counts = Array.make_matrix cells cells 0 in
  let cell_of pos = min (cells - 1) (pos * cells / n) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let s = Matrix.get severity order.(a) order.(b) in
      if not (Float.is_nan s) then begin
        let ca = cell_of a and cb = cell_of b in
        sums.(ca).(cb) <- sums.(ca).(cb) +. s;
        counts.(ca).(cb) <- counts.(ca).(cb) + 1;
        if ca <> cb then begin
          sums.(cb).(ca) <- sums.(cb).(ca) +. s;
          counts.(cb).(ca) <- counts.(cb).(ca) + 1
        end
      end
    done
  done;
  Array.init cells (fun r ->
      Array.init cells (fun c ->
          if counts.(r).(c) = 0 then 0. else sums.(r).(c) /. float_of_int counts.(r).(c)))
