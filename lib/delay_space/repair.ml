module Stats = Tivaware_util.Stats

let missing_count m =
  let n = Matrix.size m in
  (n * (n - 1) / 2) - Matrix.edge_count m

let fill_missing_shortest_path m =
  if missing_count m = 0 then Matrix.copy m
  else begin
    let sp = Shortest_path.all_pairs m in
    let n = Matrix.size m in
    let out = Matrix.copy m in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Matrix.is_missing out i j && Matrix.known sp i j then
          Matrix.set out i j (Matrix.get sp i j)
      done
    done;
    out
  end

let clamp_outliers m ~percentile =
  if percentile <= 0. || percentile > 100. then
    invalid_arg "Repair.clamp_outliers: percentile must be in (0, 100]";
  let delays = Matrix.delays m in
  if Array.length delays = 0 then Matrix.copy m
  else begin
    let cap = Stats.percentile delays percentile in
    Matrix.map (fun _ _ v -> Float.min v cap) m
  end

let drop_low_degree m ~min_degree =
  let n = Matrix.size m in
  let alive = Array.make n true in
  let degree = Array.make n 0 in
  Matrix.iter_edges m (fun i j _ ->
      degree.(i) <- degree.(i) + 1;
      degree.(j) <- degree.(j) + 1);
  (* Iterate: removing a node lowers its peers' degrees. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if alive.(i) && degree.(i) < min_degree then begin
        alive.(i) <- false;
        changed := true;
        List.iter
          (fun (j, _) -> if alive.(j) then degree.(j) <- degree.(j) - 1)
          (Matrix.neighbors m i)
      end
    done
  done;
  let keep = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then keep := i :: !keep
  done;
  let mapping = Array.of_list !keep in
  let out =
    Matrix.init (Array.length mapping) (fun a b ->
        Matrix.get m mapping.(a) mapping.(b))
  in
  (out, mapping)
