module Matrix = Tivaware_delay_space.Matrix

type edge_stats = {
  severity : float;
  violations : int;
  max_ratio : float;
  mean_ratio : float;
}

(* Dense row cache: the O(n^3) sweep is memory-bound, so we expand the
   triangular storage into plain rows once. *)
let dense_rows m =
  let n = Matrix.size m in
  Array.init n (fun i -> Matrix.row m i)

let edge_stats_rows rows n i j =
  let dij = rows.(i).(j) in
  if Float.is_nan dij then invalid_arg "Severity.edge: missing edge";
  let sum = ref 0. and count = ref 0 and max_ratio = ref 1. in
  let ri = rows.(i) and rj = rows.(j) in
  for b = 0 to n - 1 do
    if b <> i && b <> j then begin
      let leg = ri.(b) +. rj.(b) in
      (* nan legs fail the comparison, skipping missing intermediates. *)
      if dij > leg then begin
        let detour = dij /. leg in
        sum := !sum +. detour;
        incr count;
        if detour > !max_ratio then max_ratio := detour
      end
    end
  done;
  {
    severity = !sum /. float_of_int n;
    violations = !count;
    max_ratio = !max_ratio;
    mean_ratio = (if !count = 0 then 1. else !sum /. float_of_int !count);
  }

let edge m i j =
  let rows = dense_rows m in
  edge_stats_rows rows (Matrix.size m) i j

let edge_severity m i j = (edge m i j).severity

let triangulation_ratios m i j =
  let n = Matrix.size m in
  let rows = dense_rows m in
  let dij = rows.(i).(j) in
  if Float.is_nan dij then invalid_arg "Severity.triangulation_ratios: missing edge";
  let out = ref [] in
  for b = 0 to n - 1 do
    if b <> i && b <> j then begin
      let leg = rows.(i).(b) +. rows.(j).(b) in
      if (not (Float.is_nan leg)) && leg > 0. then out := (dij /. leg) :: !out
    end
  done;
  Array.of_list !out

let all_with_counts m =
  let n = Matrix.size m in
  let rows = dense_rows m in
  let out = Matrix.create n in
  let counts = ref [] in
  let nf = float_of_int n in
  for i = 0 to n - 1 do
    let ri = rows.(i) in
    for j = i + 1 to n - 1 do
      let dij = ri.(j) in
      if not (Float.is_nan dij) then begin
        let rj = rows.(j) in
        let sum = ref 0. and count = ref 0 in
        for b = 0 to n - 1 do
          let leg = ri.(b) +. rj.(b) in
          if dij > leg then begin
            sum := !sum +. (dij /. leg);
            incr count
          end
        done;
        Matrix.set out i j (!sum /. nf);
        if !count > 0 then counts := (i, j, !count) :: !counts
      end
    done
  done;
  (out, Array.of_list (List.rev !counts))

let all m = fst (all_with_counts m)


let worst_edges severity_matrix ~fraction =
  assert (fraction >= 0. && fraction <= 1.);
  let edges = Matrix.edges severity_matrix in
  Array.sort (fun (_, _, a) (_, _, b) -> compare b a) edges;
  let keep =
    int_of_float (Float.round (fraction *. float_of_int (Array.length edges)))
  in
  Array.map (fun (i, j, _) -> (i, j)) (Array.sub edges 0 (min keep (Array.length edges)))
