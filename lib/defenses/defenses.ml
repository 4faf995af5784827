type t =
  | Gadget_scan
  | Gate_checks
  | Seccomp
  | Vkey_eviction
  | Vkey_owner_checks
  | Vkey_quarantine
  | Parser_hardening
  | Tenant_quota
  | Tenant_namespace
  | Ring_validation
  | Flight_publish_last

let all =
  [ Gadget_scan; Gate_checks; Seccomp; Vkey_eviction; Vkey_owner_checks;
    Vkey_quarantine; Parser_hardening; Tenant_quota; Tenant_namespace;
    Ring_validation; Flight_publish_last ]

let index = function
  | Gadget_scan -> 0 | Gate_checks -> 1 | Seccomp -> 2 | Vkey_eviction -> 3
  | Vkey_owner_checks -> 4 | Vkey_quarantine -> 5 | Parser_hardening -> 6
  | Tenant_quota -> 7 | Tenant_namespace -> 8 | Ring_validation -> 9
  | Flight_publish_last -> 10

let name = function
  | Gadget_scan -> "gadget-scan"
  | Gate_checks -> "gate-checks"
  | Seccomp -> "seccomp"
  | Vkey_eviction -> "vkey-eviction"
  | Vkey_owner_checks -> "vkey-owner-checks"
  | Vkey_quarantine -> "vkey-quarantine"
  | Parser_hardening -> "parser-hardening"
  | Tenant_quota -> "tenant-quota"
  | Tenant_namespace -> "tenant-namespace"
  | Ring_validation -> "ring-validation"
  | Flight_publish_last -> "flight-publish-last"

let state = Array.make (List.length all) true

let on d = state.(index d)

let with_off d f =
  let i = index d in
  let saved = state.(i) in
  state.(i) <- false;
  Fun.protect ~finally:(fun () -> state.(i) <- saved) f
