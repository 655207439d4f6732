"""The command-line parser as argparse builds it, kept as the reference for
the parser in surgeryforge.cli (cli._read), which reads the plain form by
hand and refuses every other argv.

_build_parser(argv).parse_args(argv) returns an argparse Namespace with the
fields cli._read returns for a plain argv, raises ValueError with
argparse's message, or prints the help of the level argv asks for and
exits 0.  It builds argparse subparsers only along argv's command path,
once per path, reading the command words and their arguments from
cli.COMMANDS (100 drawn argvs per command).

_jsonable(value) copies a report value with every library value as its
str, every tuple as a list and every dict key as its str.  json.dumps of
the copy is the reference for cli._compact, and the copy for cli._cell,
which both print the value itself (300 drawn report values).
"""

import argparse
import functools
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


_TREE = _command_tree()


def _next_word(node, tokens):
    """(word, first) for the first token that is a word of node, or None,
    consuming tokens up to it; first when no token came before it, so that
    argparse reads the word before anything that could make it print every
    word of the level, as help or an "invalid choice" message does."""
    for count, token in enumerate(tokens):
        if token in node:
            return token, count == 0
    return None, False


def _build_parser(argv):
    """The parser for argv.  Each level on argv's command path gets a parser
    for the word argv reads there when it is the level's first token, and
    otherwise for every word of the level, which argparse may then list in
    help or an "invalid choice" message; only the word argv reads gets
    subparsers, and a command its arguments."""
    # The word argparse reads at a level is the first token that is a word
    # of the level: before the first command word argv holds only global
    # options, whose values (formats) are never command words, and a value
    # that is one fails in argparse before any word is read.
    node, tokens, path = _TREE, iter(argv), []
    while isinstance(node, dict):
        word, first = _next_word(node, tokens)
        path.append((word, first))
        if word is None:
            break
        node = node[word]
    return _parser_along(tuple(path))


@functools.cache
def _parser_along(path):
    """The parser for a command path of (word, first) steps, built once."""
    parser = _Parser(
        prog="surgeryforge",
        description="exact Dehn-surgery calculators and verification sweeps")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--timing", action="store_true",
                        help="attach elapsed_ms to the report")
    node, level_parser = _TREE, parser
    for word, first in path:
        level = level_parser.add_subparsers(required=True)
        children = {w: level.add_parser(w)
                    for w in ([word] if first else node)}
        if word is None:
            return parser
        node, level_parser = node[word], children[word]
    level_parser.set_defaults(command=node)
    for flags, keywords in COMMANDS[node][0]:
        level_parser.add_argument(*flags, **keywords)
    return parser


def _jsonable(value):
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
