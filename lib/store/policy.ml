(* Old name of Tivaware_tiv.Selection, kept for the end-to-end benchmark
   (bench/e2e). *)
include Tivaware_tiv.Selection
