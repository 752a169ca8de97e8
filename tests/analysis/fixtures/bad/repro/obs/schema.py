"""R4 fixture: a mini event schema with dead and ill-typed entries."""

EVENT_SCHEMA: dict[str, object] = {
    "tuple.drop": {"replica": "str", "port": "int"},
    "replica.crash": {"replica": "str"},
    "ghost.event": {"who": "str"},
    # An unknown tag, and two fields no emit site ever passes
    # literally (so their types are never statically checked).
    "typed.sample": {
        "count": "int",
        "ratio": "quaternion",
        "ghostfield": "str",
    },
}
