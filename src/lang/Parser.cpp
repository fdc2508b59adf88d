//===- Parser.cpp - Recursive-descent parser for the DSL -------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "obs/Trace.h"

using namespace parrec;
using namespace parrec::lang;

Parser::Parser(std::string_view Source, DiagnosticEngine &Diags)
    : Diags(Diags) {
  Lexer Lex(Source, Diags);
  Tokens = Lex.lexAll();
}

const Token &Parser::peekAhead(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // EndOfFile.
  return Tokens[Index];
}

Token Parser::consume() {
  Token T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::consumeIf(TokenKind Kind) {
  if (current().isNot(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (current().is(Kind)) {
    consume();
    return true;
  }
  Diags.error(current().Loc, std::string("expected ") + tokenKindName(Kind) +
                                 " " + Context + ", found " +
                                 tokenKindName(current().Kind));
  return false;
}

void Parser::skipToStatementStart() {
  while (current().isNot(TokenKind::EndOfFile)) {
    switch (current().Kind) {
    case TokenKind::KwAlphabet:
    case TokenKind::KwPrint:
    case TokenKind::KwMap:
    case TokenKind::KwInt:
    case TokenKind::KwFloat:
    case TokenKind::KwProb:
    case TokenKind::KwBool:
    case TokenKind::KwSeq:
    case TokenKind::KwMatrix:
    case TokenKind::KwHmm:
      return;
    default:
      consume();
    }
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Script Parser::parseScript() {
  // The script's parse, a run.* span like its statements'; compile.parse
  // is the parse pass's span, which parses one function.
  obs::Span PhaseSpan("run.parse", "runtime");
  Script Result;
  while (current().isNot(TokenKind::EndOfFile)) {
    if (consumeIf(TokenKind::Semicolon))
      continue;
    unsigned ErrorsBefore = Diags.errorCount();
    std::optional<Stmt> S = parseStatement();
    if (S) {
      Result.Statements.push_back(std::move(*S));
    } else if (Diags.errorCount() > ErrorsBefore) {
      skipToStatementStart();
    } else {
      Diags.error(current().Loc, "expected a statement, found " +
                                     std::string(tokenKindName(
                                         current().Kind)));
      consume();
      skipToStatementStart();
    }
  }
  return Result;
}

std::optional<Stmt> Parser::parseStatement() {
  switch (current().Kind) {
  case TokenKind::KwAlphabet:
    return parseAlphabetStmt();
  case TokenKind::KwPrint:
    return parsePrintOrMapStmt(/*IsMap=*/false);
  case TokenKind::KwMap:
    return parsePrintOrMapStmt(/*IsMap=*/true);
  case TokenKind::KwHmm:
    return parseHmmStmt();
  case TokenKind::KwInt:
  case TokenKind::KwFloat:
  case TokenKind::KwProb:
  case TokenKind::KwBool:
  case TokenKind::KwChar:
  case TokenKind::KwSeq:
  case TokenKind::KwMatrix:
    return parseDeclarationOrFunction();
  case TokenKind::Identifier:
    if (current().Text == "seqdb")
      return parseDeclarationOrFunction();
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

std::optional<Stmt> Parser::parseAlphabetStmt() {
  Stmt S;
  S.Kind = StmtKind::Alphabet;
  S.Loc = current().Loc;
  consume(); // 'alphabet'.
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected alphabet name");
    return std::nullopt;
  }
  S.AlphabetName = consume().Text;
  if (!expect(TokenKind::Assign, "in alphabet definition"))
    return std::nullopt;
  if (current().isNot(TokenKind::StringLiteral)) {
    Diags.error(current().Loc,
                "expected string of alphabet letters, found " +
                    std::string(tokenKindName(current().Kind)));
    return std::nullopt;
  }
  S.AlphabetLetters = consume().Text;
  return S;
}

std::optional<Stmt> Parser::parsePrintOrMapStmt(bool IsMap) {
  Stmt S;
  S.Kind = IsMap ? StmtKind::Map : StmtKind::Print;
  S.Loc = current().Loc;
  consume(); // 'print' | 'map'.
  if (consumeIf(TokenKind::KwMax))
    S.TableMax = true;
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected function name");
    return std::nullopt;
  }
  S.CalleeName = consume().Text;
  if (!expect(TokenKind::LParen, "after function name"))
    return std::nullopt;
  if (current().isNot(TokenKind::RParen)) {
    do {
      if (current().is(TokenKind::Identifier)) {
        S.CallArgs.push_back(consume().Text);
      } else if (current().is(TokenKind::IntegerLiteral)) {
        S.CallArgs.push_back(consume().Text);
      } else {
        Diags.error(current().Loc,
                    "expected a variable name or integer literal as "
                    "argument");
        return std::nullopt;
      }
    } while (consumeIf(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "to close the argument list"))
    return std::nullopt;
  return S;
}

std::optional<Stmt> Parser::parseHmmStmt() {
  SourceLocation Loc = current().Loc;
  // "hmm h = load ..." | "hmm h = { ... }" | a function with hmm params is
  // impossible here (functions cannot return hmm), so this is always a
  // model definition.
  consume(); // 'hmm'.
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected HMM variable name");
    return std::nullopt;
  }
  Stmt S;
  S.Kind = StmtKind::HmmDef;
  S.Loc = Loc;
  S.VarName = consume().Text;
  if (!expect(TokenKind::Assign, "in hmm definition"))
    return std::nullopt;
  if (consumeIf(TokenKind::KwLoad)) {
    if (current().isNot(TokenKind::StringLiteral)) {
      Diags.error(current().Loc, "expected file path string after 'load'");
      return std::nullopt;
    }
    S.Path = consume().Text;
    return S;
  }
  if (!expect(TokenKind::LBrace, "to open the hmm body"))
    return std::nullopt;
  // Capture the raw body tokens up to the matching brace; the bio library
  // parses the model text itself.
  unsigned Depth = 1;
  std::string Body;
  while (current().isNot(TokenKind::EndOfFile)) {
    if (current().is(TokenKind::LBrace))
      ++Depth;
    if (current().is(TokenKind::RBrace)) {
      --Depth;
      if (Depth == 0) {
        consume();
        S.HmmText = Body;
        return S;
      }
    }
    Token T = consume();
    if (T.is(TokenKind::StringLiteral)) {
      Body += '"';
      Body += T.Text;
      Body += '"';
    } else {
      Body += T.Text;
    }
    Body += ' ';
  }
  Diags.error(Loc, "unterminated hmm body");
  return std::nullopt;
}

std::optional<std::string> Parser::parseAlphabetRef() {
  if (!expect(TokenKind::LBracket, "before alphabet name"))
    return std::nullopt;
  std::string Name;
  if (current().is(TokenKind::Star)) {
    consume();
    Name = "*";
  } else if (current().is(TokenKind::Identifier)) {
    Name = consume().Text;
  } else {
    Diags.error(current().Loc, "expected alphabet name or '*'");
    return std::nullopt;
  }
  if (!expect(TokenKind::RBracket, "after alphabet name"))
    return std::nullopt;
  return Name;
}

std::optional<Type> Parser::parseTypeSpec() {
  SourceLocation Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::KwInt:
    consume();
    return Type::makeInt();
  case TokenKind::KwFloat:
    consume();
    return Type::makeFloat();
  case TokenKind::KwProb:
    consume();
    return Type::makeProb();
  case TokenKind::KwBool:
    consume();
    return Type::makeBool();
  case TokenKind::KwChar: {
    consume();
    auto Alpha = parseAlphabetRef();
    if (!Alpha)
      return std::nullopt;
    return Type::makeChar(*Alpha);
  }
  case TokenKind::KwSeq: {
    consume();
    auto Alpha = parseAlphabetRef();
    if (!Alpha)
      return std::nullopt;
    return Type::makeSeq(*Alpha);
  }
  case TokenKind::KwIndex: {
    consume();
    if (!expect(TokenKind::LBracket, "before sequence parameter"))
      return std::nullopt;
    if (current().isNot(TokenKind::Identifier)) {
      Diags.error(current().Loc, "expected the sequence parameter an "
                                 "index refers to");
      return std::nullopt;
    }
    std::string Ref = consume().Text;
    if (!expect(TokenKind::RBracket, "after sequence parameter"))
      return std::nullopt;
    return Type::makeIndex(Ref);
  }
  case TokenKind::KwMatrix: {
    consume();
    auto Alpha = parseAlphabetRef();
    if (!Alpha)
      return std::nullopt;
    return Type::makeMatrix(*Alpha);
  }
  case TokenKind::KwHmm:
    consume();
    return Type::makeHmm();
  case TokenKind::KwState: {
    consume();
    if (!expect(TokenKind::LBracket, "before hmm parameter"))
      return std::nullopt;
    if (current().isNot(TokenKind::Identifier)) {
      Diags.error(current().Loc,
                  "expected the hmm parameter a state belongs to");
      return std::nullopt;
    }
    std::string Ref = consume().Text;
    if (!expect(TokenKind::RBracket, "after hmm parameter"))
      return std::nullopt;
    return Type::makeState(Ref);
  }
  case TokenKind::KwTransition: {
    consume();
    if (!expect(TokenKind::LBracket, "before hmm parameter"))
      return std::nullopt;
    if (current().isNot(TokenKind::Identifier)) {
      Diags.error(current().Loc,
                  "expected the hmm parameter a transition belongs to");
      return std::nullopt;
    }
    std::string Ref = consume().Text;
    if (!expect(TokenKind::RBracket, "after hmm parameter"))
      return std::nullopt;
    return Type::makeTransition(Ref);
  }
  default:
    Diags.error(Loc, "expected a type, found " +
                         std::string(tokenKindName(current().Kind)));
    return std::nullopt;
  }
}

std::optional<Stmt> Parser::parseDeclarationOrFunction() {
  SourceLocation Loc = current().Loc;

  // "seqdb[a] db = load ..." uses a contextual keyword.
  if (current().is(TokenKind::Identifier) && current().Text == "seqdb") {
    consume();
    auto Alpha = parseAlphabetRef();
    if (!Alpha)
      return std::nullopt;
    if (current().isNot(TokenKind::Identifier)) {
      Diags.error(current().Loc, "expected variable name");
      return std::nullopt;
    }
    Stmt S;
    S.Kind = StmtKind::SeqDbLoad;
    S.Loc = Loc;
    S.TypeAlphabet = *Alpha;
    S.VarName = consume().Text;
    if (!expect(TokenKind::Assign, "in seqdb declaration") ||
        !expect(TokenKind::KwLoad, "in seqdb declaration"))
      return std::nullopt;
    if (current().isNot(TokenKind::StringLiteral)) {
      Diags.error(current().Loc, "expected file path string");
      return std::nullopt;
    }
    S.Path = consume().Text;
    return S;
  }

  std::optional<Type> DeclType = parseTypeSpec();
  if (!DeclType)
    return std::nullopt;
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected a name after the type");
    return std::nullopt;
  }
  std::string Name = consume().Text;

  // A '(' begins a function definition; '=' begins a load declaration.
  if (current().is(TokenKind::LParen)) {
    std::unique_ptr<FunctionDecl> F =
        parseFunctionTail(*DeclType, std::move(Name), Loc);
    if (!F)
      return std::nullopt;
    Stmt S;
    S.Kind = StmtKind::Function;
    S.Loc = Loc;
    S.Function = std::move(F);
    return S;
  }

  if (!expect(TokenKind::Assign, "in declaration"))
    return std::nullopt;
  if (!expect(TokenKind::KwLoad, "in declaration"))
    return std::nullopt;
  if (current().isNot(TokenKind::StringLiteral)) {
    Diags.error(current().Loc, "expected file path string");
    return std::nullopt;
  }
  Stmt S;
  S.Loc = Loc;
  S.VarName = std::move(Name);
  S.TypeAlphabet = DeclType->AlphabetName;
  S.Path = consume().Text;
  switch (DeclType->Kind) {
  case TypeKind::Seq:
    S.Kind = StmtKind::SeqLoad;
    if (consumeIf(TokenKind::LBracket)) {
      if (current().isNot(TokenKind::IntegerLiteral)) {
        Diags.error(current().Loc, "expected record index");
        return std::nullopt;
      }
      S.RecordIndex = consume().IntValue;
      if (!expect(TokenKind::RBracket, "after record index"))
        return std::nullopt;
    }
    return S;
  case TypeKind::Matrix:
    S.Kind = StmtKind::MatrixLoad;
    return S;
  default:
    Diags.error(Loc, "only seq, seqdb, matrix and hmm values can be "
                     "loaded from files");
    return std::nullopt;
  }
}

std::unique_ptr<FunctionDecl> Parser::parseFunctionTail(Type ReturnType,
                                                        std::string Name,
                                                        SourceLocation Loc) {
  auto F = std::make_unique<FunctionDecl>();
  F->Name = std::move(Name);
  F->ReturnType = std::move(ReturnType);
  F->Loc = Loc;

  expect(TokenKind::LParen, "to open the parameter list");
  if (current().isNot(TokenKind::RParen)) {
    do {
      std::optional<Type> ParamType = parseTypeSpec();
      if (!ParamType)
        return nullptr;
      if (current().isNot(TokenKind::Identifier)) {
        Diags.error(current().Loc, "expected parameter name");
        return nullptr;
      }
      Param P;
      P.Loc = current().Loc;
      P.Name = consume().Text;
      P.ParamType = std::move(*ParamType);
      F->Params.push_back(std::move(P));
    } while (consumeIf(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "to close the parameter list"))
    return nullptr;
  if (!expect(TokenKind::Assign, "before the function body"))
    return nullptr;
  F->Body = parseExpr();
  if (!F->Body)
    return nullptr;
  return F;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpressionOnly() {
  ExprPtr E = parseExpr();
  if (E && current().isNot(TokenKind::EndOfFile))
    Diags.error(current().Loc, "unexpected trailing input after expression");
  return E;
}

std::unique_ptr<FunctionDecl> Parser::parseFunctionOnly() {
  // Instrumented by the "parse" pass wrapper (compiler/).
  std::optional<Stmt> S = parseDeclarationOrFunction();
  if (!S || S->Kind != StmtKind::Function) {
    if (S)
      Diags.error(S->Loc, "expected a function definition");
    return nullptr;
  }
  if (current().isNot(TokenKind::EndOfFile))
    Diags.error(current().Loc, "unexpected trailing input after function");
  return std::move(S->Function);
}

ExprPtr Parser::parseExpr() { return parseIfExpr(); }

ExprPtr Parser::parseIfExpr() {
  if (current().isNot(TokenKind::KwIf))
    return parseCompare();
  SourceLocation Loc = consume().Loc;
  ExprPtr Cond = parseExpr();
  if (!Cond || !expect(TokenKind::KwThen, "in if expression"))
    return nullptr;
  ExprPtr Then = parseExpr();
  if (!Then || !expect(TokenKind::KwElse, "in if expression"))
    return nullptr;
  ExprPtr Else = parseExpr();
  if (!Else)
    return nullptr;
  return std::make_unique<IfExpr>(std::move(Cond), std::move(Then),
                                  std::move(Else), Loc);
}

ExprPtr Parser::parseCompare() {
  ExprPtr Lhs = parseMinMax();
  if (!Lhs)
    return nullptr;
  BinaryOp Op;
  switch (current().Kind) {
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::LessEqual:
    Op = BinaryOp::Le;
    break;
  case TokenKind::GreaterEqual:
    Op = BinaryOp::Ge;
    break;
  case TokenKind::EqualEqual:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEqual:
    Op = BinaryOp::Ne;
    break;
  default:
    return Lhs;
  }
  SourceLocation Loc = consume().Loc;
  ExprPtr Rhs = parseMinMax();
  if (!Rhs)
    return nullptr;
  return std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs),
                                      Loc);
}

ExprPtr Parser::parseMinMax() {
  ExprPtr Lhs = parseAdditive();
  if (!Lhs)
    return nullptr;
  while (current().is(TokenKind::KwMin) || current().is(TokenKind::KwMax)) {
    BinaryOp Op =
        current().is(TokenKind::KwMin) ? BinaryOp::Min : BinaryOp::Max;
    SourceLocation Loc = consume().Loc;
    ExprPtr Rhs = parseAdditive();
    if (!Rhs)
      return nullptr;
    Lhs = std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs),
                                       Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseAdditive() {
  ExprPtr Lhs = parseMultiplicative();
  if (!Lhs)
    return nullptr;
  while (current().is(TokenKind::Plus) || current().is(TokenKind::Minus)) {
    BinaryOp Op =
        current().is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLocation Loc = consume().Loc;
    ExprPtr Rhs = parseMultiplicative();
    if (!Rhs)
      return nullptr;
    Lhs = std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs),
                                       Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  while (current().is(TokenKind::Star) || current().is(TokenKind::Slash)) {
    BinaryOp Op =
        current().is(TokenKind::Star) ? BinaryOp::Mul : BinaryOp::Div;
    SourceLocation Loc = consume().Loc;
    ExprPtr Rhs = parseUnary();
    if (!Rhs)
      return nullptr;
    Lhs = std::make_unique<BinaryExpr>(Op, std::move(Lhs), std::move(Rhs),
                                       Loc);
  }
  return Lhs;
}

ExprPtr Parser::parseUnary() {
  if (current().is(TokenKind::Minus)) {
    SourceLocation Loc = consume().Loc;
    ExprPtr Operand = parseUnary();
    if (!Operand)
      return nullptr;
    // Desugar -e to 0 - e.
    return std::make_unique<BinaryExpr>(
        BinaryOp::Sub, std::make_unique<IntLiteralExpr>(0, Loc),
        std::move(Operand), Loc);
  }
  return parsePostfix();
}

std::optional<MemberKind> Parser::parseMemberName() {
  if (current().is(TokenKind::KwProb)) {
    consume();
    return MemberKind::Prob;
  }
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected member name after '.'");
    return std::nullopt;
  }
  std::string Name = consume().Text;
  if (Name == "start")
    return MemberKind::Start;
  if (Name == "end")
    return MemberKind::End;
  if (Name == "isstart")
    return MemberKind::IsStart;
  if (Name == "isend")
    return MemberKind::IsEnd;
  if (Name == "emission")
    return MemberKind::Emission;
  if (Name == "transitionsto")
    return MemberKind::TransitionsTo;
  if (Name == "transitionsfrom")
    return MemberKind::TransitionsFrom;
  Diags.error(current().Loc, "unknown member '" + Name + "'");
  return std::nullopt;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    if (current().is(TokenKind::Dot)) {
      SourceLocation Loc = consume().Loc;
      std::optional<MemberKind> Member = parseMemberName();
      if (!Member)
        return nullptr;
      ExprPtr Arg;
      if (*Member == MemberKind::Emission) {
        if (!expect(TokenKind::LBracket, "after 'emission'"))
          return nullptr;
        Arg = parseExpr();
        if (!Arg || !expect(TokenKind::RBracket, "after emission index"))
          return nullptr;
      }
      E = std::make_unique<MemberExpr>(*Member, std::move(E), std::move(Arg),
                                       Loc);
      continue;
    }
    if (current().is(TokenKind::LBracket)) {
      // Only variable bases can be indexed (Var[Expr] in the grammar).
      auto *Var = dyn_cast<VarRefExpr>(E.get());
      if (!Var) {
        Diags.error(current().Loc,
                    "only named sequences and matrices can be indexed");
        return nullptr;
      }
      SourceLocation Loc = consume().Loc;
      ExprPtr First = parseExpr();
      if (!First)
        return nullptr;
      if (consumeIf(TokenKind::Comma)) {
        ExprPtr Second = parseExpr();
        if (!Second || !expect(TokenKind::RBracket, "after matrix indices"))
          return nullptr;
        E = std::make_unique<MatrixIndexExpr>(Var->Name, std::move(First),
                                              std::move(Second), Loc);
      } else {
        if (!expect(TokenKind::RBracket, "after sequence index"))
          return nullptr;
        E = std::make_unique<SeqIndexExpr>(Var->Name, std::move(First), Loc);
      }
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parseReduction(ReductionKind Kind) {
  SourceLocation Loc = consume().Loc; // 'sum' | 'min' | 'max'.
  if (!expect(TokenKind::LParen, "after reduction keyword"))
    return nullptr;
  if (current().isNot(TokenKind::Identifier)) {
    Diags.error(current().Loc, "expected reduction variable name");
    return nullptr;
  }
  std::string Var = consume().Text;
  if (!expect(TokenKind::KwIn, "in reduction"))
    return nullptr;
  ExprPtr Domain = parseExpr();
  if (!Domain || !expect(TokenKind::Colon, "before reduction body"))
    return nullptr;
  ExprPtr Body = parseExpr();
  if (!Body || !expect(TokenKind::RParen, "to close the reduction"))
    return nullptr;
  return std::make_unique<ReductionExpr>(Kind, std::move(Var),
                                         std::move(Domain), std::move(Body),
                                         Loc);
}

ExprPtr Parser::parsePrimary() {
  switch (current().Kind) {
  case TokenKind::IntegerLiteral: {
    Token T = consume();
    return std::make_unique<IntLiteralExpr>(T.IntValue, T.Loc);
  }
  case TokenKind::FloatLiteral: {
    Token T = consume();
    return std::make_unique<FloatLiteralExpr>(T.FloatValue, T.Loc);
  }
  case TokenKind::CharLiteral: {
    Token T = consume();
    return std::make_unique<CharLiteralExpr>(T.CharValue, T.Loc);
  }
  case TokenKind::KwTrue: {
    Token T = consume();
    return std::make_unique<BoolLiteralExpr>(true, T.Loc);
  }
  case TokenKind::KwFalse: {
    Token T = consume();
    return std::make_unique<BoolLiteralExpr>(false, T.Loc);
  }
  case TokenKind::KwSum:
    return parseReduction(ReductionKind::Sum);
  case TokenKind::KwMin:
    return parseReduction(ReductionKind::Min);
  case TokenKind::KwMax:
    return parseReduction(ReductionKind::Max);
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    if (!E || !expect(TokenKind::RParen, "to close the parenthesis"))
      return nullptr;
    return E;
  }
  case TokenKind::Identifier: {
    Token T = consume();
    if (current().is(TokenKind::LParen)) {
      consume();
      std::vector<ExprPtr> Args;
      if (current().isNot(TokenKind::RParen)) {
        do {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "to close the call"))
        return nullptr;
      return std::make_unique<CallExpr>(T.Text, std::move(Args), T.Loc);
    }
    return std::make_unique<VarRefExpr>(T.Text, T.Loc);
  }
  default:
    Diags.error(current().Loc, "expected an expression, found " +
                                   std::string(tokenKindName(
                                       current().Kind)));
    return nullptr;
  }
}
