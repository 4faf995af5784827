(* The deployment value, under its own name: see [Tls.Machine]. *)
include Tls.Machine
