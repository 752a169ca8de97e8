"""Good fixture: a mini event schema, fully emitted and typed."""

EVENT_SCHEMA: dict[str, object] = {
    # Field names and value tags, all statically validated.
    "tuple.drop": {"replica": "str", "port": "int"},
    # Extra payload beyond the declared fields is allowed.
    "replica.crash": {"replica": "str"},
}
