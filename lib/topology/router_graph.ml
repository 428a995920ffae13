module Rng = Tivaware_util.Rng
module Pqueue = Tivaware_util.Pqueue

type t = { n : int; adj : (int * float) list array }

let create n = { n; adj = Array.make n [] }

let add_edge t a b w =
  if a = b then invalid_arg "Router_graph.add_edge: self-loop";
  if w <= 0. then invalid_arg "Router_graph.add_edge: non-positive weight";
  assert (a >= 0 && a < t.n && b >= 0 && b < t.n);
  t.adj.(a) <- (b, w) :: t.adj.(a);
  t.adj.(b) <- (a, w) :: t.adj.(b)

let neighbors t i = t.adj.(i)

let single_source t src =
  let dist = Array.make t.n infinity in
  let queue = Pqueue.create () in
  dist.(src) <- 0.;
  Pqueue.push queue 0. src;
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (d, u) ->
      if d <= dist.(u) then
        List.iter
          (fun (v, w) ->
            let nd = d +. w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              Pqueue.push queue nd v
            end)
          t.adj.(u);
      drain ()
  in
  drain ();
  dist

let connected t =
  if t.n = 0 then true
  else begin
    let dist = single_source t 0 in
    Array.for_all (fun d -> d < infinity) dist
  end

let shortest_paths t = Array.init t.n (fun src -> single_source t src)

let random_connected rng ~n ~extra_edges ~weight =
  let g = create n in
  if n > 1 then begin
    (* Random spanning tree: connect each node to a random earlier node
       of a random permutation, which yields unbiased-enough trees for a
       synthetic backbone. *)
    let order = Rng.permutation rng n in
    for k = 1 to n - 1 do
      let parent = order.(Rng.int rng k) in
      add_edge g order.(k) parent (weight ())
    done;
    let added = ref 0 and attempts = ref 0 in
    while !added < extra_edges && !attempts < 50 * (extra_edges + 1) do
      incr attempts;
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b && not (List.exists (fun (v, _) -> v = b) g.adj.(a)) then begin
        add_edge g a b (weight ());
        incr added
      end
    done
  end;
  g
