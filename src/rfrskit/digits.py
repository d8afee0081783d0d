"""Integers as text, at any size.

`_decimal` writes every integer of unbounded size that goes to a file or
a report, past the int-to-str digit limit too: in the presentation, chain
and graph writers, `describe`, graph-group words and the command line.
`_from_decimal` reads one back for the file and word readers, so each
writer's output reads back, and `_echo` writes the input a reader
refuses, a line, token or int, clipped to a short line.

The module imports nothing, so a graph-group command, which writes and
reads integers but does no matrix algebra, never loads `intlinalg`.
"""

# `_decimal` writes 600 digits per str call: fewer than 640, the least
# int-to-str digit limit that sys.set_int_max_str_digits accepts.
_DECIMAL_DIGITS = 600
_DECIMAL_CHUNK = 10**_DECIMAL_DIGITS


def _decimal(n: int) -> str:
    """The decimal digits of n, as str(n) writes them, at any size: past the
    interpreter's int-to-str digit limit (4300 by default) n is written in
    chunks below any limit, which stays as it is; other n take one str call."""
    try:
        return str(n)
    except ValueError:  # n is past the digit limit
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _DECIMAL_CHUNK:
        n, r = divmod(n, _DECIMAL_CHUNK)
        chunks.append(f"{r:0{_DECIMAL_DIGITS}d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def _from_decimal(text: str) -> int:
    """The int that text names, at any size, in int's grammar once non-ASCII
    text and '_' are refused: whitespace, one optional sign, digits.  Digits
    past the interpreter's limit are read in chunks.  Other text is refused
    in int's words, with the text as `_echo` writes it."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            body = text.strip(" \t\n\r\v\f")  # int's whitespace; str.strip also takes \x1c-\x1f
            digits = body[1:] if body[:1] in ("+", "-") else body
        if digits.isdigit():
            value = 0
            for i in range(0, len(digits), _DECIMAL_DIGITS):
                chunk = digits[i:i + _DECIMAL_DIGITS]
                value = value * 10 ** len(chunk) + int(chunk)
            return -value if body[0] == "-" else value
    raise ValueError(f"invalid literal for int() with base 10: {_echo(text)}")


# A refusal echoes a piece of input up to this many characters whole.
_ECHO_CHARS = 40


def _echo(value: str | int, note: str = "") -> str:
    """A piece of input as a refusal writes it: a string as its repr, an
    int as its digits.  Past _ECHO_CHARS characters only the first
    _ECHO_CHARS - 8 are written, then '...' and the length, with `note`
    after the length, so a refusal stays one short line whatever the
    input: the readers take ints past the int-to-str digit limit and lines
    of any length."""
    quote = repr if isinstance(value, str) else str
    text = value if isinstance(value, str) else _decimal(value)
    if len(text) <= _ECHO_CHARS:
        return quote(text)
    return f"{quote(text[:_ECHO_CHARS - 8])}... ({len(text)} characters{note})"
