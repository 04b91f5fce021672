"""Exception types shared across the library, and the reader of config documents."""


class ValcutsError(Exception):
    """Base class for all library errors."""


class StructuralError(ValcutsError):
    """Mismatched descriptors or coordinates outside a component's allowed set."""


class DegenerateInputError(ValcutsError):
    """Input that the operation rejects by convention (zero element, empty cut)."""


class NotImmediateError(ValcutsError):
    """Approximation values do not increase strictly, so the element is not immediate."""


class WrongCaseError(ValcutsError):
    """Datum belongs to a different analysis case than the one requested."""


class InconsistentDatumError(ValcutsError):
    """Extension datum whose declared values contradict each other."""


class InvalidSelectionError(ValcutsError):
    """Selected level is not a subprincipal convex subgroup of the built group."""


class ParseError(ValcutsError):
    """Formula syntax error with input position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(ValcutsError):
    """Config document or command-line value rejected, naming each field at fault."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)

    @classmethod
    def at(cls, path: str, reason) -> "ConfigError":
        """The error `path: reason`, naming `path`."""
        return cls(f"{path}: {reason}", fields=[path])


def built(path: str, make, *args, **kwargs):
    """make(*args, **kwargs); a StructuralError it raises, or a coordinate in
    `args` that Fraction cannot read, is a ConfigError naming `path`."""
    try:
        return make(*args, **kwargs)
    except StructuralError as err:
        reason = str(err)
    except (ValueError, ZeroDivisionError):   # raised by Fraction alone
        reason = f"{list(args)!r} is not a list of exact rationals"
    raise ConfigError.at(path, reason)


_REQUIRED = object()
_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          bool: "a boolean", float: "a number with a fraction or an exponent",
          type(None): "null"}


class ConfigReader:
    """Reads one JSON object of a config document, each field once.

    A field is read by its exact JSON type (true is no integer, nor is 1.0)
    with its presence and range rules.  A broken rule is recorded for the
    whole document and the walk goes on, so a document names each error;
    `build` builds nothing once one is recorded.  The reader of a missing or
    rejected object reads nothing.  `close`, on the outermost reader, records
    each key no reader read as unknown and raises all that was recorded.
    """

    def __init__(self, data, path: str = "", parent: "ConfigReader | None" = None):
        self.path = path
        self.errors, self.unread = ([], {}) if parent is None else (parent.errors, parent.unread)
        if parent is None and type(data) is not dict:
            self.errors.append((path or "(root)", "expected an object"))
            data = None
        self.data = data
        self.unread.update(dict.fromkeys(map(self.at, data or ())))

    def at(self, key: str) -> str:
        return f"{self.path}/{key}" if self.path else key

    def fail(self, key: str, reason: str) -> None:
        self.errors.append((self.at(key), reason))

    def get(self, key: str, kind: type, default=_REQUIRED, *, low=None, among=None,
            missing="missing"):
        """The value at `key` of JSON type `kind`, at least `low` and one of
        `among` when given, or `default` when absent; None once a rule fails."""
        if self.data is None:
            return None
        if key not in self.data:
            if default is _REQUIRED:
                self.fail(key, missing)
                return None
            return default
        self.unread.pop(self.at(key), None)
        return self.check(key, self.data[key], kind, low, among)

    def check(self, key: str, value, kind: type, low=None, among=None):
        """`value`, read at `key` by the rules of `get`."""
        if type(value) is not kind:
            got = _TYPES.get(type(value), type(value).__name__)
            self.fail(key, f"expected {_TYPES[kind]}, got {got}")
        elif low is not None and value < low:
            self.fail(key, f"expected at least {low}, got {value}")
        elif among is not None and value not in among:
            self.fail(key, f"expected one of {', '.join(map(repr, among))}, got {value!r}")
        else:
            return value
        return None

    def kind(self, key: str, among):
        """The string at `key` that decides which fields this object has.
        When it is rejected, no key of the object is judged unknown."""
        value = self.get(key, str, among=among)
        if value is None:
            for other in self.data or ():
                self.unread.pop(self.at(other), None)
        return value

    def object(self, key: str, missing="missing") -> "ConfigReader":
        return ConfigReader(self.get(key, dict, missing=missing), self.at(key), self)

    def objects(self, key: str) -> list:
        """A reader for each item of the array at `key`; each is an object."""
        return [ConfigReader(self.check(f"{key}/{n}", item, dict), self.at(f"{key}/{n}"), self)
                for n, item in enumerate(self.get(key, list) or ())]

    def element(self, key: str, group, default=_REQUIRED):
        """The element of `group` whose coordinates are the array at `key`."""
        coords = self.get(key, list, default)
        if type(coords) is not list:
            return coords   # the default, or None
        if not all(type(c) is str or type(c) is int for c in coords):
            self.fail(key, "expected an array of strings and integers")
        return None if self.errors else built(self.at(key), group.element, *coords)

    def build(self, key: str, make, *args, **kwargs):
        """make(*args, **kwargs) named by the path of `key`, as by `built`;
        None once an error is recorded."""
        return None if self.errors else built(self.at(key), make, *args, **kwargs)

    def close(self) -> None:
        self.errors.extend((path, "unknown field") for path in self.unread)
        if self.errors:
            raise ConfigError("; ".join(f"{path}: {reason}" for path, reason in self.errors),
                              fields=[path for path, _ in self.errors])


class EvaluationUnsupported(ValcutsError):
    """Term cannot be evaluated on this model; surfaces as UNKNOWN in bounded mode."""
