(** Dataset presets mirroring the four measured data sets of the paper.

    Each preset is a {!Generator.params} tuned so the resulting delay
    space matches the corresponding data set's qualitative TIV profile
    (Figure 2 ordering of severity tails, Figures 4–7 severity-vs-delay
    shapes):

    - {b DS²} (4000 nodes in the paper): three major clusters, moderate
      heavy tail, severities up to ~10;
    - {b Meridian} (2500): most severe violations (tail up to ~20) —
      aggressive inflation;
    - {b p2psim} (1740): mildest violations (tail up to ~3);
    - {b PlanetLab} (229): small, academically well-connected, but with
      a noticeable severe tail (~14).

    [size] rescales node count; the paper-scale default is expensive
    (severity analysis is O(n³)), so experiments default to a few
    hundred nodes.  Pass [size] explicitly for paper-scale runs. *)

type preset = Ds2 | Meridian | P2psim | Planetlab

val name : ?size:int -> preset -> string
(** Label used in figure output: ["DS2-560-data"] style; [size] defaults
    to the preset's scaled-down paper size (DS² 560, Meridian 350,
    p2psim 245, PlanetLab 229, keeping the paper's relative sizes). *)

val params : ?size:int -> preset -> Generator.params

val generate : ?size:int -> seed:int -> preset -> Generator.t
(** Generates the preset's delay space deterministically from [seed]. *)

val all : preset list
(** [Ds2; Meridian; P2psim; Planetlab] — the Figure 2/9 ensemble. *)
