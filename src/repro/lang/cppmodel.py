"""Fuzzy structural model of a C/C++/CUDA translation unit.

This module plays the role Lizard plays in the paper: it extracts functions,
classes, namespaces and file-scope variables from arbitrary industrial
C++/CUDA source *without* building a full C++ AST.  It works on the token
stream with brace/paren matching, which makes it robust to templates,
macros, and the CUDA dialect, at the cost of being heuristic for the
genuinely ambiguous corners of C++ (which it resolves the way a metric tool
would: conservatively).

The produced :class:`TranslationUnit` is the substrate for every metric and
checker in :mod:`repro.metrics` and :mod:`repro.checkers`.  Its token-free
:class:`UnitSummary` is what outlives the per-file pass: the store keeps
it, process workers ship it, and project-level consumers read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..rules.deviations import DeviationIndex, scan_deviations
from . import preprocessor as _preprocessor
from .lexer import tokenize
from .tokens import CUDA_KEYWORDS, Token, TokenKind

if TYPE_CHECKING:
    from ..metrics.loc import LineCounts

#: Keywords that open a decision point for cyclomatic complexity, matching
#: Lizard's default counting rules.
_DECISION_KEYWORDS = frozenset({"if", "for", "while", "case", "catch"})

#: Punctuators that add a decision point (short-circuit operators and the
#: ternary operator).
_DECISION_PUNCTS = frozenset({"&&", "||", "?"})

#: Built-in type keywords used by the C-style-cast and declaration heuristics.
TYPE_KEYWORDS = frozenset({
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto",
})

#: Identifiers that allocate dynamic memory (Table 8 item 2 evidence).
ALLOCATION_CALLS = frozenset({
    "malloc", "calloc", "realloc", "cudaMalloc", "cudaMallocManaged",
    "cudaMallocHost", "cudaHostAlloc", "make_shared", "make_unique",
})

#: Identifiers that release dynamic memory.
DEALLOCATION_CALLS = frozenset({"free", "cudaFree", "cudaFreeHost"})

_FUNCTION_TRAILER_KEYWORDS = frozenset({
    "const", "noexcept", "override", "final", "volatile", "throw", "try",
    "mutable", "constexpr",
})

_DECLARATION_SPECIFIERS = frozenset({
    "static", "extern", "inline", "const", "constexpr", "volatile",
    "register", "mutable", "typename", "virtual", "explicit", "friend",
}) | TYPE_KEYWORDS | CUDA_KEYWORDS


@dataclass
class Parameter:
    """One formal parameter of a function signature."""

    text: str
    name: str
    is_pointer: bool
    is_reference: bool
    is_const: bool


@dataclass
class FunctionInfo:
    """Everything the analyzers need to know about one function definition.

    ``body_start``/``body_end`` are indices into the translation unit's
    *code* token list, pointing at the opening and closing braces.
    """

    name: str
    qualified_name: str
    start_line: int
    end_line: int
    parameters: List[Parameter] = field(default_factory=list)
    body_start: int = -1
    body_end: int = -1
    cyclomatic_complexity: int = 1
    token_count: int = 0
    nloc: int = 0
    return_count: int = 0
    goto_count: int = 0
    break_count: int = 0
    continue_count: int = 0
    throw_count: int = 0
    max_nesting: int = 0
    calls: List[str] = field(default_factory=list)
    pointer_operations: int = 0
    allocation_calls: int = 0
    deallocation_calls: int = 0
    new_expressions: int = 0
    delete_expressions: int = 0
    kernel_launches: int = 0
    is_cuda_kernel: bool = False
    is_device_function: bool = False
    is_static: bool = False
    namespace: str = ""
    class_name: str = ""

    @property
    def parameter_count(self) -> int:
        return len(self.parameters)

    @property
    def length_in_lines(self) -> int:
        """Source lines spanned by the definition, inclusive."""
        return self.end_line - self.start_line + 1

    @property
    def exit_points(self) -> int:
        """Explicit exit points: returns plus throws (gotos counted apart).

        A function whose body contains no ``return`` still exits by falling
        off the end, so the count is at least one.
        """
        return max(1, self.return_count + self.throw_count)

    @property
    def has_multiple_exits(self) -> bool:
        """Table 8 item 1: more than one exit point, or any goto."""
        return self.exit_points > 1 or self.goto_count > 0

    @property
    def uses_dynamic_memory(self) -> bool:
        """Table 8 item 2: any allocation in the body."""
        return (self.allocation_calls > 0 or self.new_expressions > 0)

    @property
    def is_gpu_code(self) -> bool:
        return self.is_cuda_kernel or self.is_device_function


@dataclass
class ClassInfo:
    """A class/struct/union definition at namespace scope (or nested)."""

    name: str
    kind: str
    start_line: int
    end_line: int
    namespace: str = ""
    bases: List[str] = field(default_factory=list)
    method_names: List[str] = field(default_factory=list)
    public_method_names: List[str] = field(default_factory=list)
    field_count: int = 0

    @property
    def qualified_name(self) -> str:
        if self.namespace:
            return f"{self.namespace}::{self.name}"
        return self.name

    @property
    def interface_size(self) -> int:
        """Number of public methods — the Table 3 item 3 evidence."""
        return len(self.public_method_names)


@dataclass
class GlobalVariable:
    """A mutable variable declared at file or namespace scope."""

    name: str
    type_text: str
    line: int
    namespace: str = ""
    is_const: bool = False
    is_static: bool = False
    is_extern: bool = False
    is_constexpr: bool = False

    @property
    def is_mutable_global(self) -> bool:
        """True for the globals ISO 26262 Table 8 item 5 cares about."""
        return not (self.is_const or self.is_constexpr)


class _UnitQueries:
    """Lookups shared by :class:`TranslationUnit` and :class:`UnitSummary`."""

    filename: str
    functions: List[FunctionInfo]
    globals: List[GlobalVariable]

    def function(self, name: str) -> FunctionInfo:
        """Look up a function by bare or qualified name."""
        for candidate in self.functions:
            if candidate.name == name or candidate.qualified_name == name:
                return candidate
        raise KeyError(f"{self.filename} defines no function {name!r}")

    @property
    def cuda_functions(self) -> List[FunctionInfo]:
        return [function for function in self.functions if function.is_gpu_code]

    @property
    def mutable_globals(self) -> List[GlobalVariable]:
        return [variable for variable in self.globals
                if variable.is_mutable_global]


@dataclass
class TranslationUnit(_UnitQueries):
    """The fuzzy model of one source file."""

    filename: str
    tokens: List[Token]
    code: List[Token]
    functions: List[FunctionInfo]
    classes: List[ClassInfo]
    namespaces: List[str]
    globals: List[GlobalVariable]
    preprocessor: _preprocessor.PreprocessorSummary
    line_count: int

    def body_tokens(self, function: FunctionInfo) -> List[Token]:
        """The code tokens of a function body, braces included."""
        if function.body_start < 0:
            return []
        return self.code[function.body_start:function.body_end + 1]

    @cached_property
    def deviations(self) -> DeviationIndex:
        """The unit's ``DEVIATION(...)`` comments, scanned once."""
        return scan_deviations(self.tokens, self.filename)

    def summary(self, source: str) -> "UnitSummary":
        """The token-free :class:`UnitSummary` of this unit.

        ``source`` is the text the unit was parsed from; its line
        counts are taken here, while the tokens still exist.
        """
        # Imported here: repro.metrics imports this module.
        from ..metrics.loc import count_lines
        return UnitSummary(
            filename=self.filename,
            functions=self.functions,
            classes=self.classes,
            namespaces=self.namespaces,
            globals=self.globals,
            preprocessor=self.preprocessor,
            line_count=self.line_count,
            lines=count_lines(source, self.tokens),
            deviations=self.deviations,
        )


@dataclass
class UnitSummary(_UnitQueries):
    """Everything project-level consumers need of one unit, minus tokens.

    The per-file pass (lex, model, fused checker sweep) runs on the full
    :class:`TranslationUnit`; what survives it is this summary, which is
    what the store keeps under the parse stage tag and what process
    workers ship back.  Metrics, the project-level checkers and report
    routing read the same attributes from either type, so they give
    identical results on both.

    Attributes:
        lines: the file's :class:`~repro.metrics.loc.LineCounts`.
        deviations: the unit's ``DEVIATION(...)`` index (possibly empty).
    """

    filename: str
    functions: List[FunctionInfo]
    classes: List[ClassInfo]
    namespaces: List[str]
    globals: List[GlobalVariable]
    preprocessor: _preprocessor.PreprocessorSummary
    line_count: int
    lines: "LineCounts"
    deviations: DeviationIndex


class _Scope:
    """One entry of the builder's nesting stack."""

    __slots__ = ("kind", "name", "access")

    def __init__(self, kind: str, name: str, access: str = "private") -> None:
        self.kind = kind  # "namespace" | "class" | "block"
        self.name = name
        self.access = access


class CppModelBuilder:
    """Builds a :class:`TranslationUnit` from source text."""

    def __init__(self, source: str, filename: str = "<memory>") -> None:
        self.source = source
        self.filename = filename
        self.tokens = tokenize(source, filename, strict=False)
        self.code = [token for token in self.tokens
                     if token.kind not in (TokenKind.COMMENT,
                                           TokenKind.PREPROCESSOR)]
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []
        self.namespaces: List[str] = []
        self.globals: List[GlobalVariable] = []
        self._scopes: List[_Scope] = []

    # ------------------------------------------------------------------
    # public entry point

    def build(self) -> TranslationUnit:
        self._scan(0, len(self.code))
        line_count = self.source.count("\n") + (1 if self.source else 0)
        return TranslationUnit(
            filename=self.filename,
            tokens=self.tokens,
            code=self.code,
            functions=self.functions,
            classes=self.classes,
            namespaces=self.namespaces,
            globals=self.globals,
            preprocessor=_preprocessor.summarize_tokens(self.tokens),
            line_count=line_count,
        )

    # ------------------------------------------------------------------
    # scope-level scanning

    def _scan(self, start: int, end: int) -> None:
        """Scan tokens in [start, end) at namespace/class scope."""
        index = start
        code = self.code
        keyword = TokenKind.KEYWORD
        punct = TokenKind.PUNCT
        while index < end:
            token = code[index]
            kind = token.kind
            if kind is keyword:
                text = token.text
                if text == "namespace":
                    index = self._handle_namespace(index, end)
                elif text in ("class", "struct", "union"):
                    index = self._handle_class(index, end)
                elif text == "enum":
                    index = self._skip_enum(index, end)
                elif text == "template":
                    index = self._skip_template_header(index, end)
                elif text in ("typedef", "using"):
                    index = self._skip_to_semicolon(index, end)
                elif text == "extern" and index + 1 < end \
                        and code[index + 1].kind is TokenKind.STRING:
                    index = self._handle_extern_c(index, end)
                elif (text in ("public", "private", "protected")
                      and index + 1 < end
                      and code[index + 1].is_punct(":")):
                    if self._scopes and self._scopes[-1].kind == "class":
                        self._scopes[-1].access = text
                    index += 2
                else:
                    index = self._handle_declaration(index, end)
            elif kind is punct:
                text = token.text
                if text == "{":
                    index = self._match_brace(index, end) + 1
                elif text == "}":
                    if self._scopes:
                        self._scopes.pop()
                    index += 1
                elif text == ";":
                    index += 1
                else:
                    index = self._handle_declaration(index, end)
            else:
                index = self._handle_declaration(index, end)

    def _handle_namespace(self, index: int, end: int) -> int:
        cursor = index + 1
        name_parts: List[str] = []
        while cursor < end and self.code[cursor].kind is TokenKind.IDENTIFIER:
            name_parts.append(self.code[cursor].text)
            cursor += 1
            if cursor < end and self.code[cursor].is_punct("::"):
                cursor += 1
            else:
                break
        if cursor < end and self.code[cursor].is_punct("="):
            # Namespace alias: skip to the semicolon.
            return self._skip_to_semicolon(cursor, end)
        if cursor < end and self.code[cursor].is_punct("{"):
            name = "::".join(name_parts)
            qualified = self._qualify_namespace(name)
            if qualified and qualified not in self.namespaces:
                self.namespaces.append(qualified)
            self._scopes.append(_Scope("namespace", name))
            return cursor + 1
        return cursor + 1

    def _handle_extern_c(self, index: int, end: int) -> int:
        cursor = index + 2
        if cursor < end and self.code[cursor].is_punct("{"):
            self._scopes.append(_Scope("namespace", ""))
            return cursor + 1
        # `extern "C" void f();` — treat like a plain declaration.
        return self._handle_declaration(cursor, end)

    def _handle_class(self, index: int, end: int) -> int:
        kind = self.code[index].text
        cursor = index + 1
        # Skip attributes and alignment specifiers before the name.
        while cursor < end and self.code[cursor].is_punct("["):
            cursor = self._match_bracket(cursor, end) + 1
        name = ""
        if cursor < end and self.code[cursor].kind is TokenKind.IDENTIFIER:
            name = self.code[cursor].text
            cursor += 1
        if cursor < end and self.code[cursor].is_punct("<"):
            cursor = self._match_angle(cursor, end) + 1
        if cursor < end and self.code[cursor].is_punct(";"):
            return cursor + 1  # forward declaration
        bases: List[str] = []
        if cursor < end and self.code[cursor].is_punct(":"):
            cursor += 1
            while cursor < end and not self.code[cursor].is_punct("{"):
                if self.code[cursor].kind is TokenKind.IDENTIFIER:
                    bases.append(self.code[cursor].text)
                cursor += 1
        if cursor < end and self.code[cursor].is_punct("{"):
            info = ClassInfo(
                name=name or "<anonymous>",
                kind=kind,
                start_line=self.code[index].line,
                end_line=self.code[index].line,
                namespace=self._current_namespace(),
                bases=bases,
            )
            self.classes.append(info)
            default_access = "public" if kind in ("struct", "union") else "private"
            self._scopes.append(_Scope("class", info.name, default_access))
            return cursor + 1
        # Elaborated type specifier (e.g. `struct Foo bar;`): treat the
        # remainder as an ordinary declaration.
        return self._handle_declaration(cursor, end)

    def _skip_enum(self, index: int, end: int) -> int:
        cursor = index + 1
        while cursor < end and not (self.code[cursor].is_punct("{")
                                    or self.code[cursor].is_punct(";")):
            cursor += 1
        if cursor < end and self.code[cursor].is_punct("{"):
            cursor = self._match_brace(cursor, end) + 1
            return self._skip_to_semicolon(cursor - 1, end)
        return cursor + 1

    def _skip_template_header(self, index: int, end: int) -> int:
        cursor = index + 1
        if cursor < end and self.code[cursor].is_punct("<"):
            return self._match_angle(cursor, end) + 1
        return cursor

    # ------------------------------------------------------------------
    # declaration / function-definition scanning

    def _handle_declaration(self, index: int, end: int) -> int:
        """Scan a declaration starting at ``index`` at namespace/class scope.

        Decides between a function definition, a function declaration, and a
        variable declaration, and records the appropriate model entries.
        """
        head_start = index
        cursor = index
        operator_name: Optional[str] = None
        code = self.code
        punct = TokenKind.PUNCT
        while cursor < end:
            token = code[cursor]
            kind = token.kind
            if kind is punct:
                text = token.text
                if text == "[":
                    cursor = self._match_bracket(cursor, end) + 1
                    continue
                if text == "<":
                    matched = self._try_match_angle(cursor, end)
                    if matched >= 0:
                        cursor = matched + 1
                        continue
                    return cursor + 1
                if text == "(":
                    return self._after_head_paren(head_start, cursor, end,
                                                  operator_name)
                if text == "=" or text == ";":
                    return self._record_variable(head_start, cursor, end)
                if text == "{" or text == "}":
                    return cursor  # let _scan handle scope changes
                if text == ":" and not self._is_class_scope():
                    # Stray label-like construct at namespace scope; skip it.
                    return cursor + 1
            elif kind is TokenKind.KEYWORD and token.text == "operator":
                operator_name, cursor = self._scan_operator_name(cursor, end)
                continue
            cursor += 1
        return end

    def _scan_operator_name(self, index: int, end: int) -> Tuple[str, int]:
        cursor = index + 1
        symbol = ""
        while cursor < end and self.code[cursor].kind is TokenKind.PUNCT \
                and not self.code[cursor].is_punct("("):
            symbol += self.code[cursor].text
            cursor += 1
        if cursor + 1 < end and self.code[cursor].is_punct("(") \
                and self.code[cursor + 1].is_punct(")") and not symbol:
            symbol = "()"
            cursor += 2
        if not symbol and cursor < end \
                and self.code[cursor].kind in (TokenKind.IDENTIFIER,
                                               TokenKind.KEYWORD):
            # Conversion operator, e.g. `operator bool`.
            symbol = " " + self.code[cursor].text
            cursor += 1
        return f"operator{symbol}", cursor

    def _after_head_paren(self, head_start: int, paren: int, end: int,
                          operator_name: Optional[str]) -> int:
        name, name_index = self._signature_name(head_start, paren,
                                                operator_name)
        close = self._match_paren(paren, end)
        if close < 0:
            return end
        if name is None:
            # Not a plausible function signature (e.g. a function-pointer
            # type or an initializer); skip the parenthesized group.
            return self._skip_to_semicolon(close, end)
        cursor = close + 1
        # Trailer: cv-qualifiers, noexcept(...), override, trailing return.
        while cursor < end:
            token = self.code[cursor]
            if token.kind is TokenKind.KEYWORD \
                    and token.text in _FUNCTION_TRAILER_KEYWORDS:
                cursor += 1
                if cursor < end and self.code[cursor].is_punct("("):
                    cursor = self._match_paren(cursor, end) + 1
                continue
            if token.kind is TokenKind.IDENTIFIER \
                    and token.text in ("override", "final"):
                cursor += 1
                continue
            if token.is_punct("->"):
                cursor += 1
                while cursor < end and not (self.code[cursor].is_punct("{")
                                            or self.code[cursor].is_punct(";")
                                            or self.code[cursor].is_punct("=")):
                    if self.code[cursor].is_punct("<"):
                        cursor = self._match_angle(cursor, end)
                    cursor += 1
                continue
            break
        if cursor >= end:
            return end
        token = self.code[cursor]
        if token.is_punct(":"):
            # Constructor initializer list: advance to the body brace.
            cursor += 1
            depth = 0
            while cursor < end:
                entry = self.code[cursor]
                if entry.kind is TokenKind.PUNCT:
                    if entry.text in ("(", "["):
                        depth += 1
                    elif entry.text in (")", "]"):
                        depth -= 1
                    elif entry.text == "{" and depth == 0:
                        break
                    elif entry.text == ";" and depth == 0:
                        return cursor + 1
                    elif entry.text == "<":
                        matched = self._try_match_angle(cursor, end)
                        if matched >= 0:
                            cursor = matched
                cursor += 1
            token = self.code[cursor] if cursor < end else None
        if token is not None and token.is_punct("{"):
            return self._record_function(head_start, paren, close, cursor,
                                         end, name)
        if token is not None and token.is_punct(";"):
            self._record_method_declaration(head_start, name)
            return cursor + 1
        if token is not None and token.is_punct("="):
            # `= default;`, `= delete;`, or pure virtual `= 0;`.
            self._record_method_declaration(head_start, name)
            return self._skip_to_semicolon(cursor, end)
        if token is not None and token.is_punct(","):
            # Variable declared with a parenthesized initializer, followed
            # by more declarators.
            return self._skip_to_semicolon(cursor, end)
        return cursor + 1 if cursor < end else end

    def _signature_name(self, head_start: int, paren: int,
                        operator_name: Optional[str]) -> Tuple[Optional[str], int]:
        """The function name for a head ending at ``paren``, or None."""
        if operator_name is not None:
            return operator_name, paren - 1
        index = paren - 1
        if index < head_start:
            return None, -1
        token = self.code[index]
        if token.kind is not TokenKind.IDENTIFIER:
            return None, -1
        name = token.text
        if index - 1 >= head_start and self.code[index - 1].is_punct("~"):
            return "~" + name, index
        return name, index

    def _record_method_declaration(self, head_start: int, name: str) -> None:
        if not self._is_class_scope():
            return
        info = self._enclosing_class()
        if info is None:
            return
        info.method_names.append(name)
        if self._scopes[-1].access == "public":
            info.public_method_names.append(name)

    def _record_function(self, head_start: int, paren: int, close: int,
                         body_open: int, end: int, name: str) -> int:
        head = self.code[head_start:paren]
        body_close = self._match_brace(body_open, end)
        if body_close < 0:
            body_close = end - 1
        head_texts = {token.text for token in head}
        namespace = self._current_namespace()
        class_name = self._current_class_name()
        # Qualified definitions out of line: `void Foo::bar() { }`.
        qual_parts: List[str] = []
        index = paren - 2
        while index - 1 >= head_start and self.code[index].is_punct("::") \
                and self.code[index - 1].kind is TokenKind.IDENTIFIER:
            qual_parts.insert(0, self.code[index - 1].text)
            index -= 2
        if qual_parts and not class_name:
            class_name = "::".join(qual_parts)

        function = FunctionInfo(
            name=name,
            qualified_name=self._qualified_name(namespace, class_name, name),
            start_line=self.code[head_start].line,
            end_line=self.code[body_close].line,
            parameters=self._parse_parameters(paren, close),
            body_start=body_open,
            body_end=body_close,
            is_cuda_kernel="__global__" in head_texts,
            is_device_function="__device__" in head_texts,
            is_static="static" in head_texts,
            namespace=namespace,
            class_name=class_name,
        )
        self._analyze_body(function)
        self.functions.append(function)
        if self._is_class_scope():
            info = self._enclosing_class()
            if info is not None:
                info.method_names.append(name)
                if self._scopes[-1].access == "public":
                    info.public_method_names.append(name)
                info.end_line = max(info.end_line, function.end_line)
        return body_close + 1

    def _parse_parameters(self, paren: int, close: int) -> List[Parameter]:
        parameters: List[Parameter] = []
        segment: List[Token] = []
        depth = 0
        for index in range(paren + 1, close):
            token = self.code[index]
            if token.kind is TokenKind.PUNCT:
                if token.text in ("(", "[", "{", "<"):
                    depth += 1
                elif token.text in (")", "]", "}", ">"):
                    depth -= 1
                elif token.text == "," and depth == 0:
                    parameters.append(self._make_parameter(segment))
                    segment = []
                    continue
            segment.append(token)
        if segment:
            parameters.append(self._make_parameter(segment))
        return [parameter for parameter in parameters
                if parameter.text not in ("", "void")]

    @staticmethod
    def _make_parameter(tokens: Sequence[Token]) -> Parameter:
        text = " ".join(token.text for token in tokens)
        name = ""
        for token in reversed(tokens):
            if token.kind is TokenKind.IDENTIFIER:
                name = token.text
                break
        texts = [token.text for token in tokens]
        return Parameter(
            text=text,
            name=name,
            is_pointer="*" in texts,
            is_reference="&" in texts or "&&" in texts,
            is_const="const" in texts,
        )

    def _analyze_body(self, function: FunctionInfo) -> None:
        open_index, close_index = function.body_start, function.body_end
        complexity = 1
        depth = 0
        max_depth = 0
        lines = set()
        add_line = lines.add
        keyword = TokenKind.KEYWORD
        punct = TokenKind.PUNCT
        identifier = TokenKind.IDENTIFIER
        previous = None
        for token in self.code[open_index:close_index + 1]:
            add_line(token.line)
            kind = token.kind
            if kind is keyword:
                text = token.text
                if text in _DECISION_KEYWORDS:
                    complexity += 1
                elif text == "return":
                    function.return_count += 1
                elif text == "goto":
                    function.goto_count += 1
                elif text == "break":
                    function.break_count += 1
                elif text == "continue":
                    function.continue_count += 1
                elif text == "throw":
                    function.throw_count += 1
                elif text == "new":
                    function.new_expressions += 1
                elif text == "delete":
                    function.delete_expressions += 1
            elif kind is punct:
                text = token.text
                if text in _DECISION_PUNCTS:
                    complexity += 1
                elif text == "{":
                    depth += 1
                    if depth > max_depth:
                        max_depth = depth
                elif text == "}":
                    depth -= 1
                elif text == "*" or text == "->":
                    function.pointer_operations += 1
                elif text == "<<<":
                    function.kernel_launches += 1
                elif text == "(" and previous is not None \
                        and previous.kind is identifier:
                    name = previous.text
                    function.calls.append(name)
                    if name in ALLOCATION_CALLS:
                        function.allocation_calls += 1
                    elif name in DEALLOCATION_CALLS:
                        function.deallocation_calls += 1
            previous = token
        function.cyclomatic_complexity = complexity
        function.token_count = close_index - open_index + 1
        function.nloc = len(lines)
        # The body braces themselves are depth 1; report nesting *inside*.
        function.max_nesting = max(0, max_depth - 1)

    # ------------------------------------------------------------------
    # variable declarations

    def _record_variable(self, head_start: int, stop: int, end: int) -> int:
        """Record a namespace-scope variable whose head ends at ``stop``."""
        head = self.code[head_start:stop]
        if not head or self._is_class_scope():
            # Class data members are summarized via field_count only.
            info = self._enclosing_class()
            if info is not None and head:
                info.field_count += 1
            return self._skip_to_semicolon(stop, end)
        names = [token for token in head
                 if token.kind is TokenKind.IDENTIFIER]
        if not names:
            return self._skip_to_semicolon(stop, end)
        name_token = names[-1]
        texts = {token.text for token in head}
        type_tokens = [token.text for token in head
                       if token is not name_token]
        variable = GlobalVariable(
            name=name_token.text,
            type_text=" ".join(type_tokens),
            line=name_token.line,
            namespace=self._current_namespace(),
            is_const="const" in texts,
            is_static="static" in texts,
            is_extern="extern" in texts,
            is_constexpr="constexpr" in texts,
        )
        self.globals.append(variable)
        return self._skip_to_semicolon(stop, end)

    # ------------------------------------------------------------------
    # matching helpers

    def _match_paren(self, index: int, end: int) -> int:
        return self._match_pair(index, end, "(", ")")

    def _match_brace(self, index: int, end: int) -> int:
        return self._match_pair(index, end, "{", "}")

    def _match_bracket(self, index: int, end: int) -> int:
        return self._match_pair(index, end, "[", "]")

    def _match_pair(self, index: int, end: int, open_text: str,
                    close_text: str) -> int:
        depth = 0
        cursor = index
        code = self.code
        punct = TokenKind.PUNCT
        while cursor < end:
            token = code[cursor]
            if token.kind is punct:
                text = token.text
                if text == open_text:
                    depth += 1
                elif text == close_text:
                    depth -= 1
                    if depth == 0:
                        return cursor
            cursor += 1
        return end - 1

    def _match_angle(self, index: int, end: int) -> int:
        matched = self._try_match_angle(index, end)
        return matched if matched >= 0 else index

    def _try_match_angle(self, index: int, end: int) -> int:
        """Match ``<``...``>`` within a bounded window, or return -1.

        Angle brackets are ambiguous with comparison operators; the
        heuristic gives up at semicolons, braces, or after a long window,
        mirroring what metric tools do.
        """
        depth = 0
        cursor = index
        limit = min(end, index + 256)
        while cursor < limit:
            token = self.code[cursor]
            if token.kind is TokenKind.PUNCT:
                if token.text == "<":
                    depth += 1
                elif token.text == ">":
                    depth -= 1
                    if depth == 0:
                        return cursor
                elif token.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return cursor
                elif token.text in (";", "{", "}"):
                    return -1
            cursor += 1
        return -1

    def _skip_to_semicolon(self, index: int, end: int) -> int:
        depth = 0
        cursor = index
        while cursor < end:
            token = self.code[cursor]
            if token.kind is TokenKind.PUNCT:
                if token.text in ("(", "[", "{"):
                    depth += 1
                elif token.text in (")", "]", "}"):
                    if depth == 0 and token.text == "}":
                        return cursor  # let the caller pop the scope
                    depth -= 1
                elif token.text == ";" and depth == 0:
                    return cursor + 1
            cursor += 1
        return end

    # ------------------------------------------------------------------
    # scope helpers

    def _is_class_scope(self) -> bool:
        return bool(self._scopes) and self._scopes[-1].kind == "class"

    def _enclosing_class(self) -> Optional[ClassInfo]:
        for scope in reversed(self._scopes):
            if scope.kind == "class":
                for info in reversed(self.classes):
                    if info.name == scope.name:
                        return info
        return None

    def _current_namespace(self) -> str:
        parts = [scope.name for scope in self._scopes
                 if scope.kind == "namespace" and scope.name]
        return "::".join(parts)

    def _current_class_name(self) -> str:
        for scope in reversed(self._scopes):
            if scope.kind == "class":
                return scope.name
        return ""

    def _qualify_namespace(self, name: str) -> str:
        current = self._current_namespace()
        if current and name:
            return f"{current}::{name}"
        return name or current

    @staticmethod
    def _qualified_name(namespace: str, class_name: str, name: str) -> str:
        parts = [part for part in (namespace, class_name, name) if part]
        return "::".join(parts)


def parse_translation_unit(source: str,
                           filename: str = "<memory>") -> TranslationUnit:
    """Build the fuzzy model of one source file."""
    return CppModelBuilder(source, filename).build()
