type severity = Error | Warning | Info

type location =
  | Soc
  | Core of int
  | Tam of int
  | Line of int
  | File of string * int

type kind =
  | Empty_partition
  | Nonpositive_width
  | Width_sum_mismatch
  | Assignment_length_mismatch
  | Assignment_out_of_range
  | Core_time_mismatch
  | Tam_time_mismatch
  | Soc_time_mismatch
  | Lower_bound_violated
  | Beats_exhaustive_optimum
  | Simulation_mismatch
  | Soc_name_mismatch
  | Schedule_core_missing
  | Schedule_core_duplicated
  | Schedule_wrong_tam
  | Schedule_duration_mismatch
  | Schedule_overlap
  | Schedule_negative_start
  | Rect_out_of_strip
  | Makespan_mismatch
  | Peak_power_mismatch
  | Power_budget_exceeded
  | Syntax_error
  | Duplicate_core_id
  | Nonconsecutive_core_ids
  | Zero_patterns
  | No_test_data
  | Scan_chain_mismatch
  | Module_count_mismatch
  | Name_complexity_mismatch
  | Degenerate_core
  | Polymorphic_comparison
  | Entropy_source
  | Unguarded_shared_state
  | Domain_escape
  | Lock_discipline
  | Hot_allocation
  | Missing_interface
  | Worker_effect
  | Outcome_dropped
  | Engine_caps_mismatch
  | Tau_discipline
  | Analysis_error

type t = {
  severity : severity;
  kind : kind;
  location : location;
  message : string;
}

let make severity kind location message = { severity; kind; location; message }

let with_severity severity kind location fmt =
  Format.kasprintf (fun message -> make severity kind location message) fmt

let errorf kind location fmt = with_severity Error kind location fmt
let warningf kind location fmt = with_severity Warning kind location fmt
let infof kind location fmt = with_severity Info kind location fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let kind_name = function
  | Empty_partition -> "empty-partition"
  | Nonpositive_width -> "nonpositive-width"
  | Width_sum_mismatch -> "width-sum-mismatch"
  | Assignment_length_mismatch -> "assignment-length-mismatch"
  | Assignment_out_of_range -> "assignment-out-of-range"
  | Core_time_mismatch -> "core-time-mismatch"
  | Tam_time_mismatch -> "tam-time-mismatch"
  | Soc_time_mismatch -> "soc-time-mismatch"
  | Lower_bound_violated -> "lower-bound-violated"
  | Beats_exhaustive_optimum -> "beats-exhaustive-optimum"
  | Simulation_mismatch -> "simulation-mismatch"
  | Soc_name_mismatch -> "soc-name-mismatch"
  | Schedule_core_missing -> "schedule-core-missing"
  | Schedule_core_duplicated -> "schedule-core-duplicated"
  | Schedule_wrong_tam -> "schedule-wrong-tam"
  | Schedule_duration_mismatch -> "schedule-duration-mismatch"
  | Schedule_overlap -> "schedule-overlap"
  | Schedule_negative_start -> "schedule-negative-start"
  | Rect_out_of_strip -> "rect-out-of-strip"
  | Makespan_mismatch -> "makespan-mismatch"
  | Peak_power_mismatch -> "peak-power-mismatch"
  | Power_budget_exceeded -> "power-budget-exceeded"
  | Syntax_error -> "syntax-error"
  | Duplicate_core_id -> "duplicate-core-id"
  | Nonconsecutive_core_ids -> "nonconsecutive-core-ids"
  | Zero_patterns -> "zero-patterns"
  | No_test_data -> "no-test-data"
  | Scan_chain_mismatch -> "scan-chain-mismatch"
  | Module_count_mismatch -> "module-count-mismatch"
  | Name_complexity_mismatch -> "name-complexity-mismatch"
  | Degenerate_core -> "degenerate-core"
  | Polymorphic_comparison -> "polymorphic-comparison"
  | Entropy_source -> "entropy-source"
  | Unguarded_shared_state -> "unguarded-shared-state"
  | Domain_escape -> "domain-escape"
  | Lock_discipline -> "lock-discipline"
  | Hot_allocation -> "hot-allocation"
  | Missing_interface -> "missing-interface"
  | Worker_effect -> "worker-effect"
  | Outcome_dropped -> "outcome-dropped"
  | Engine_caps_mismatch -> "engine-caps-mismatch"
  | Tau_discipline -> "tau-discipline"
  | Analysis_error -> "analysis-error"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

let pp_location ppf = function
  | Soc -> Format.pp_print_string ppf "SOC"
  | Core i -> Format.fprintf ppf "core %d" i
  | Tam j -> Format.fprintf ppf "TAM %d" j
  | Line l -> Format.fprintf ppf "line %d" l
  | File (path, l) -> Format.fprintf ppf "%s:%d" path l

let pp ppf t =
  Format.fprintf ppf "%s[%s] at %a: %s" (severity_name t.severity)
    (kind_name t.kind) pp_location t.location t.message
