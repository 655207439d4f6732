"""The command-line parser as argparse builds it, kept as the reference for
the parser in surgeryforge.cli (cli._read), which reads the plain form by
hand and refuses every other argv.

PARSER.parse_args(argv) returns an argparse Namespace with the fields
cli._read returns for a plain argv, raises ValueError with argparse's
message, or prints the help of the level argv asks for and exits 0.
PARSER is built once, at import, as the whole command tree: a subparser
level per command word and at each command its arguments, all read from
cli.COMMANDS (100 drawn argvs per command, each also run through cli.main).

_jsonable(value) copies a report value with every library value as its
str, every tuple as a list and every dict key as its str.  json.dumps of
the copy is the reference for cli._compact, and the copy for cli._cell,
which both print the value itself (300 drawn report values).
"""

import argparse
import re

from surgeryforge.cli import COMMANDS

_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as -7/3 as a positional, as argparse
    already does for a negative integer, and raises a usage error as a
    ValueError, as cli._read does; subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_FRACTION.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


def _command_tree():
    """The command words as nested dicts, in the order of COMMANDS: each
    word maps to the words below it, or at a leaf to its command name."""
    tree = {}
    for name in COMMANDS:
        *path, last = name.split()
        node = tree
        for word in path:
            node = node.setdefault(word, {})
        node[last] = name
    return tree


def _add_words(parser, node):
    """Give parser a subparser for each word of node, with the words below
    it, or at a leaf the name and arguments of the command."""
    if isinstance(node, str):
        parser.set_defaults(command=node)
        for flags, keywords in COMMANDS[node][0]:
            parser.add_argument(*flags, **keywords)
        return
    level = parser.add_subparsers(required=True)
    for word, below in node.items():
        _add_words(level.add_parser(word), below)


PARSER = _Parser(
    prog="surgeryforge",
    description="exact Dehn-surgery calculators and verification sweeps")
PARSER.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
PARSER.add_argument("--timing", action="store_true",
                    help="attach elapsed_ms to the report")
_add_words(PARSER, _command_tree())


def _jsonable(value):
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
