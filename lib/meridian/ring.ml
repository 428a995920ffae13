type config = {
  alpha : float;
  s : float;
  rings : int;
  k : int;
  l : int;
  beta : float;
}

let default_config = { alpha = 1.; s = 2.; rings = 11; k = 16; l = 4; beta = 0.5 }

let unlimited_config n =
  { default_config with k = max 1 n; l = 0 }

let ring_of cfg delay =
  assert (cfg.alpha > 0. && cfg.s > 1. && cfg.rings >= 1);
  if delay <= cfg.alpha then 1
  else begin
    (* Smallest i with delay <= alpha * s^i. *)
    let i = int_of_float (ceil (log (delay /. cfg.alpha) /. log cfg.s)) in
    min cfg.rings (max 1 i)
  end
