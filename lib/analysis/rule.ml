type id =
  | Det_poly
  | Det_entropy
  | Dom_shared
  | Iface
  | Dom_escape
  | Lock_raise
  | Alloc_hot
  | Effect_worker
  | Outcome_drop
  | Engine_caps
  | Tau_discipline

let all =
  [
    Det_poly;
    Det_entropy;
    Dom_shared;
    Iface;
    Dom_escape;
    Lock_raise;
    Alloc_hot;
    Effect_worker;
    Outcome_drop;
    Engine_caps;
    Tau_discipline;
  ]

let name = function
  | Det_poly -> "DET-POLY"
  | Det_entropy -> "DET-ENTROPY"
  | Dom_shared -> "DOM-SHARED"
  | Iface -> "IFACE"
  | Dom_escape -> "DOM-ESCAPE"
  | Lock_raise -> "LOCK-RAISE"
  | Alloc_hot -> "ALLOC-HOT"
  | Effect_worker -> "EFFECT-WORKER"
  | Outcome_drop -> "OUTCOME-DROP"
  | Engine_caps -> "ENGINE-CAPS"
  | Tau_discipline -> "TAU-DISCIPLINE"

let of_name = function
  | "DET-POLY" -> Some Det_poly
  | "DET-ENTROPY" -> Some Det_entropy
  | "DOM-SHARED" -> Some Dom_shared
  | "IFACE" -> Some Iface
  | "DOM-ESCAPE" -> Some Dom_escape
  | "LOCK-RAISE" -> Some Lock_raise
  | "ALLOC-HOT" -> Some Alloc_hot
  | "EFFECT-WORKER" -> Some Effect_worker
  | "OUTCOME-DROP" -> Some Outcome_drop
  | "ENGINE-CAPS" -> Some Engine_caps
  | "TAU-DISCIPLINE" -> Some Tau_discipline
  | _ -> None

let kind = function
  | Det_poly -> Soctam_check.Violation.Polymorphic_comparison
  | Det_entropy -> Soctam_check.Violation.Entropy_source
  | Dom_shared -> Soctam_check.Violation.Unguarded_shared_state
  | Iface -> Soctam_check.Violation.Missing_interface
  | Dom_escape -> Soctam_check.Violation.Domain_escape
  | Lock_raise -> Soctam_check.Violation.Lock_discipline
  | Alloc_hot -> Soctam_check.Violation.Hot_allocation
  | Effect_worker -> Soctam_check.Violation.Worker_effect
  | Outcome_drop -> Soctam_check.Violation.Outcome_dropped
  | Engine_caps -> Soctam_check.Violation.Engine_caps_mismatch
  | Tau_discipline -> Soctam_check.Violation.Tau_discipline

let synopsis = function
  | Det_poly ->
      "polymorphic =/</compare/Hashtbl.hash in a solver layer \
       (lib/core, lib/partition, lib/wrapper, lib/tam), or an \
       equality/ordering/compare/min/max at a type variable under lib/"
  | Det_entropy ->
      "Random / Sys.time / Unix.gettimeofday outside lib/util/prng and \
       lib/util/timer"
  | Dom_shared ->
      "unsynchronized top-level mutable state in a module reachable from \
       Util.Pool domains"
  | Iface -> "lib/ module without an .mli"
  | Dom_escape ->
      "mutable value created outside a worker closure but mutated inside \
       one without a guarding mutex"
  | Lock_raise ->
      "possible raise while a Mutex is held without Fun.protect, or \
       inconsistent lock acquisition order"
  | Alloc_hot ->
      "allocation (closure, tuple, boxed float/option, list cons, array) \
       or an array read at a type variable inside a [@soctam.hot] \
       function or loop"
  | Effect_worker ->
      "inferred write effect on non-worker-local mutable state reachable \
       from a Pool / Domain.spawn worker closure without an atomic or \
       mutex guard"
  | Outcome_drop ->
      "Outcome.t consumer that discards the Budget_exhausted / \
       Interrupted resume checkpoint (wildcard payload, ignore, or a \
       dropped binding)"
  | Engine_caps ->
      "Engine.S caps record contradicted by the implementation: run \
       reaches the domain pool without caps.parallel"
  | Tau_discipline ->
      "direct Shared_min.get inside a [@soctam.hot] scope (bypasses the \
       worker mirror), or Shared_min.improve from worker code (skips the \
       mirror's strict-improvement export filter)"
