(** Stable grouping for the batch verification planner.

    Groups come back ordered by first occurrence of their key, items
    within a group in input order.  With {!Pool.run}'s submission-order
    results, this keeps a planner that groups order-sensitive work into
    one task per key bit-identical to the sequential engine at any job
    count. *)

val group_by : key:('a -> 'k) -> 'a list -> ('k * 'a list) list
