//! Recursive-descent parser for the mini-C source language.

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// The deepest statement-plus-expression nesting [`parse`] accepts. Each
/// nested block, loop or `if` body, `else if`, parenthesised or unary
/// operand, call argument list, index, `alloc` count and assignment
/// right-hand side is one level, and so is each link of a binary-operator
/// chain such as `n + n + n`; past the cap parsing stops with a parse
/// error instead of recursing toward a stack overflow, so the syntax
/// tree's depth stays bounded for every later pass. C11 §5.2.4.1
/// guarantees only 63 nested parenthesised expressions.
pub const MAX_NESTING: usize = 64;

/// Parses a whole translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// use offload_lang::parse;
///
/// let program = parse("void main(int n) { int i; for (i = 0; i < n; i++) { output(i); } }")?;
/// assert_eq!(program.functions.len(), 1);
/// assert_eq!(program.functions[0].params[0].name, "n");
/// # Ok::<(), offload_lang::LangError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, LangError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), LangError> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(LangError::parse(
                self.span(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    /// Spends one level of the nesting budget.
    fn deeper(&mut self) -> Result<(), LangError> {
        if self.depth == MAX_NESTING {
            return Err(LangError::parse(
                self.span(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses one nested construct with `f`, one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        self.deeper()?;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn mk(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            id: self.fresh_id(),
            kind,
            span,
        }
    }

    /// Deep-clones an expression with fresh node ids (used by desugaring,
    /// which must not duplicate ids).
    fn renumber(&mut self, e: &Expr) -> Expr {
        let kind = match &e.kind {
            ExprKind::Int(v) => ExprKind::Int(*v),
            ExprKind::Var(n) => ExprKind::Var(n.clone()),
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(self.renumber(a))),
            ExprKind::Binary(op, a, b) => {
                ExprKind::Binary(*op, Box::new(self.renumber(a)), Box::new(self.renumber(b)))
            }
            ExprKind::Assign(a, b) => {
                ExprKind::Assign(Box::new(self.renumber(a)), Box::new(self.renumber(b)))
            }
            ExprKind::Index(a, b) => {
                ExprKind::Index(Box::new(self.renumber(a)), Box::new(self.renumber(b)))
            }
            ExprKind::Field(a, f) => ExprKind::Field(Box::new(self.renumber(a)), f.clone()),
            ExprKind::ArrowField(a, f) => {
                ExprKind::ArrowField(Box::new(self.renumber(a)), f.clone())
            }
            ExprKind::Call(n, args) => {
                ExprKind::Call(n.clone(), args.iter().map(|a| self.renumber(a)).collect())
            }
            ExprKind::CallPtr(c, args) => ExprKind::CallPtr(
                Box::new(self.renumber(c)),
                args.iter().map(|a| self.renumber(a)).collect(),
            ),
            ExprKind::AddrOf(a) => ExprKind::AddrOf(Box::new(self.renumber(a))),
            ExprKind::Deref(a) => ExprKind::Deref(Box::new(self.renumber(a))),
            ExprKind::Alloc(t, a) => ExprKind::Alloc(t.clone(), Box::new(self.renumber(a))),
        };
        let span = e.span;
        self.mk(kind, span)
    }

    fn program(mut self) -> Result<Program, LangError> {
        let mut program = Program::default();
        while self.peek() != &TokenKind::Eof {
            if self.peek() == &TokenKind::KwStruct && self.peek_at(2) == &TokenKind::LBrace {
                program.structs.push(self.struct_def()?);
                continue;
            }
            // A function or global declaration: type, stars, name, then
            // `(` means function.
            let span = self.span();
            let base = self.base_type()?;
            let ty = self.pointer_suffix(base);
            let name = self.ident()?;
            if self.peek() == &TokenKind::LParen {
                program.functions.push(self.function(ty, name, span)?);
            } else {
                let ty = self.array_suffix(ty)?;
                self.expect(TokenKind::Semi)?;
                program.globals.push(Global { name, ty, span });
            }
        }
        program.node_count = self.next_id;
        Ok(program)
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(LangError::parse(
                self.span(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn base_type(&mut self) -> Result<Type, LangError> {
        match self.peek().clone() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::KwVoid => {
                self.bump();
                Ok(Type::Void)
            }
            TokenKind::KwFn => {
                self.bump();
                Ok(Type::Fn)
            }
            TokenKind::KwStruct => {
                self.bump();
                let name = self.ident()?;
                Ok(Type::Struct(name))
            }
            other => Err(LangError::parse(
                self.span(),
                format!("expected a type, found {other}"),
            )),
        }
    }

    fn pointer_suffix(&mut self, mut ty: Type) -> Type {
        while self.eat(&TokenKind::Star) {
            ty = ty.ptr_to();
        }
        ty
    }

    fn array_suffix(&mut self, ty: Type) -> Result<Type, LangError> {
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => dims.push(n as u64),
                other => {
                    return Err(LangError::parse(
                        self.span(),
                        format!("expected array size, found {other}"),
                    ))
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        // `int a[2][3]` is an array of 2 arrays of 3 ints.
        let mut out = ty;
        for d in dims.into_iter().rev() {
            out = Type::Array(Box::new(out), d);
        }
        Ok(out)
    }

    fn struct_def(&mut self) -> Result<StructDef, LangError> {
        let span = self.span();
        self.expect(TokenKind::KwStruct)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            let base = self.base_type()?;
            let ty = self.pointer_suffix(base);
            let fname = self.ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect(TokenKind::Semi)?;
            fields.push((fname, ty));
        }
        self.expect(TokenKind::RBrace)?;
        self.expect(TokenKind::Semi)?;
        Ok(StructDef { name, fields, span })
    }

    fn function(&mut self, ret: Type, name: String, span: Span) -> Result<Function, LangError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let pspan = self.span();
                let base = self.base_type()?;
                let ty = self.pointer_suffix(base);
                let pname = self.ident()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Block, LangError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(LangError::parse(self.span(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt | TokenKind::KwVoid | TokenKind::KwFn | TokenKind::KwStruct
        )
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        match self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.nested(Self::block)?)),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.nested(Self::block_or_single)?;
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.is_type_start() => {
                let s = self.decl_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(s)
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        let base = self.base_type()?;
        let ty = self.pointer_suffix(base);
        let name = self.ident()?;
        let ty = self.array_suffix(ty)?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            span,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then = self.nested(Self::block_or_single)?;
        let otherwise = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                let nested = self.nested(Self::if_stmt)?;
                Some(Block {
                    stmts: vec![nested],
                })
            } else {
                Some(self.nested(Self::block_or_single)?)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then,
            otherwise,
            span,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init = if self.peek() == &TokenKind::Semi {
            self.bump();
            None
        } else if self.is_type_start() {
            let d = self.decl_stmt()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(d))
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = self.nested(Self::block_or_single)?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn block_or_single(&mut self) -> Result<Block, LangError> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, LangError> {
        let lhs = self.logic_or()?;
        let span = self.span();
        match self.peek() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.nested(Self::assignment)?;
                Ok(self.mk(ExprKind::Assign(Box::new(lhs), Box::new(rhs)), span))
            }
            TokenKind::PlusAssign | TokenKind::MinusAssign => {
                let op = if self.bump() == TokenKind::PlusAssign {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let rhs = self.nested(Self::assignment)?;
                let lhs2 = self.renumber(&lhs);
                let sum = self.mk(ExprKind::Binary(op, Box::new(lhs2), Box::new(rhs)), span);
                Ok(self.mk(ExprKind::Assign(Box::new(lhs), Box::new(sum)), span))
            }
            _ => Ok(lhs),
        }
    }

    fn logic_or(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::logic_and, |t| {
            (t == &TokenKind::OrOr).then_some(BinOp::Or)
        })
    }

    fn logic_and(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::equality, |t| {
            (t == &TokenKind::AndAnd).then_some(BinOp::And)
        })
    }

    fn equality(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::relational, |t| match t {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            _ => None,
        })
    }

    fn relational(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::additive, |t| match t {
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        })
    }

    fn additive(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::multiplicative, |t| match t {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::unary, |t| match t {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Percent => Some(BinOp::Rem),
            _ => None,
        })
    }

    /// Parses a left-associative chain `operand (op operand)*`, where
    /// `op_of` recognizes the chain's operators. Each link puts the tree
    /// one level deeper, so it spends one level of the nesting budget
    /// until the chain ends.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, LangError>,
        op_of: fn(&TokenKind) -> Option<BinOp>,
    ) -> Result<Expr, LangError> {
        let outer = self.depth;
        let mut links = || {
            let mut lhs = operand(self)?;
            while let Some(op) = op_of(self.peek()) {
                self.deeper()?;
                let span = self.span();
                self.bump();
                let rhs = operand(self)?;
                lhs = self.mk(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
            }
            Ok(lhs)
        };
        let parsed = links();
        self.depth = outer;
        parsed
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(self.mk(ExprKind::Unary(UnOp::Neg, Box::new(e)), span))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(self.mk(ExprKind::Unary(UnOp::Not, Box::new(e)), span))
            }
            TokenKind::Star => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(self.mk(ExprKind::Deref(Box::new(e)), span))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.nested(Self::unary)?;
                Ok(self.mk(ExprKind::AddrOf(Box::new(e)), span))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let op = if self.bump() == TokenKind::PlusPlus {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let e = self.nested(Self::unary)?;
                self.incr_decr(e, op, span)
            }
            _ => self.postfix(),
        }
    }

    /// Desugars `e++` / `++e` to `e = e (+|-) 1`.
    ///
    /// Note: unlike C, the postfix form also yields the *new* value; all
    /// code in this repository only uses the operators in value-discarding
    /// positions (for-loop steps), where the distinction is unobservable.
    fn incr_decr(&mut self, e: Expr, op: BinOp, span: Span) -> Result<Expr, LangError> {
        let copy = self.renumber(&e);
        let one = self.mk(ExprKind::Int(1), span);
        let sum = self.mk(ExprKind::Binary(op, Box::new(copy), Box::new(one)), span);
        Ok(self.mk(ExprKind::Assign(Box::new(e), Box::new(sum)), span))
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let args = self.nested(Self::call_args)?;
                    e = match e.kind {
                        ExprKind::Var(name) => self.mk(ExprKind::Call(name, args), e.span),
                        _ => self.mk(ExprKind::CallPtr(Box::new(e), args), span),
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.nested(Self::expr)?;
                    self.expect(TokenKind::RBracket)?;
                    e = self.mk(ExprKind::Index(Box::new(e), Box::new(idx)), span);
                }
                TokenKind::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    e = self.mk(ExprKind::Field(Box::new(e), field), span);
                }
                TokenKind::Arrow => {
                    self.bump();
                    let field = self.ident()?;
                    e = self.mk(ExprKind::ArrowField(Box::new(e), field), span);
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let op = if self.bump() == TokenKind::PlusPlus {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    e = self.incr_decr(e, op, span)?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, LangError> {
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(self.mk(ExprKind::Int(v), span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(self.mk(ExprKind::Var(name), span))
            }
            TokenKind::KwAlloc => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let base = self.base_type()?;
                let ty = self.pointer_suffix(base);
                self.expect(TokenKind::Comma)?;
                let count = self.nested(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(self.mk(ExprKind::Alloc(ty, Box::new(count)), span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(LangError::parse(
                span,
                format!("expected an expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_main() {
        let p = parse("void main() {}").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert!(p.functions[0].params.is_empty());
        assert_eq!(p.functions[0].ret, Type::Void);
    }

    #[test]
    fn parses_struct_and_global() {
        let p = parse(
            "struct list { int index; struct list *next; };
             int buffer[4096];
             void main() {}",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(
            p.structs[0].fields[1].1,
            Type::Struct("list".into()).ptr_to()
        );
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].ty, Type::Array(Box::new(Type::Int), 4096));
    }

    #[test]
    fn parses_pointer_return_type() {
        let p = parse("struct list { int x; }; struct list *f(int n) { return 0; } void main() {}")
            .unwrap();
        assert_eq!(p.functions[0].ret, Type::Struct("list".into()).ptr_to());
    }

    #[test]
    fn parses_for_loop_with_decl() {
        let p = parse("void main(int n) { for (int i = 0; i < n; i++) { output(i); } }").unwrap();
        let Stmt::For {
            init, cond, step, ..
        } = &p.functions[0].body.stmts[0]
        else {
            panic!("expected for");
        };
        assert!(matches!(init.as_deref(), Some(Stmt::Decl { .. })));
        assert!(cond.is_some());
        assert!(step.is_some());
    }

    #[test]
    fn desugars_increment() {
        let p = parse("void main() { int i; i++; }").unwrap();
        let Stmt::Expr(e) = &p.functions[0].body.stmts[1] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Assign(..)));
    }

    #[test]
    fn desugars_plus_assign() {
        let p = parse("void main() { int i; i += 5; }").unwrap();
        let Stmt::Expr(e) = &p.functions[0].body.stmts[1] else {
            panic!()
        };
        let ExprKind::Assign(_, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Add, ..)));
    }

    #[test]
    fn precedence() {
        let p = parse("void main() { int x; x = 1 + 2 * 3; }").unwrap();
        let Stmt::Expr(e) = &p.functions[0].body.stmts[1] else {
            panic!()
        };
        let ExprKind::Assign(_, rhs) = &e.kind else {
            panic!()
        };
        let ExprKind::Binary(BinOp::Add, _, r) = &rhs.kind else {
            panic!("expected + at top")
        };
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Mul, ..)));
    }

    #[test]
    fn parses_pointer_chain_and_fields() {
        let src = "struct list { int index; struct list *next; };
                   void main() {
                     struct list *p;
                     p = alloc(struct list, 1);
                     p->index = 3;
                     (*p).index = 4;
                   }";
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].body.stmts.len(), 4);
    }

    #[test]
    fn parses_indirect_call() {
        let src = "int id(int x) { return x; }
                   void main() { fn g; g = &id; (*g)(3); g(4); }";
        let p = parse(src).unwrap();
        let stmts = &p.functions[1].body.stmts;
        let Stmt::Expr(e) = &stmts[2] else { panic!() };
        assert!(matches!(e.kind, ExprKind::CallPtr(..)));
        // `g(4)` parses as a direct call; name resolution later decides it
        // is actually indirect because `g` is a local variable.
        let Stmt::Expr(e) = &stmts[3] else { panic!() };
        assert!(matches!(e.kind, ExprKind::Call(..)));
    }

    #[test]
    fn node_ids_unique() {
        let src = "void main(int n) { int i; for (i = 0; i < n; i++) { i += 2; } }";
        let p = parse(src).unwrap();
        let mut seen = std::collections::HashSet::new();
        fn walk(e: &Expr, seen: &mut std::collections::HashSet<u32>) {
            assert!(seen.insert(e.id.0), "duplicate node id {}", e.id);
            match &e.kind {
                ExprKind::Unary(_, a)
                | ExprKind::AddrOf(a)
                | ExprKind::Deref(a)
                | ExprKind::Alloc(_, a)
                | ExprKind::Field(a, _)
                | ExprKind::ArrowField(a, _) => walk(a, seen),
                ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
                    walk(a, seen);
                    walk(b, seen);
                }
                ExprKind::Call(_, args) => args.iter().for_each(|a| walk(a, seen)),
                ExprKind::CallPtr(c, args) => {
                    walk(c, seen);
                    args.iter().for_each(|a| walk(a, seen));
                }
                ExprKind::Int(_) | ExprKind::Var(_) => {}
            }
        }
        fn walk_block(b: &Block, seen: &mut std::collections::HashSet<u32>) {
            for s in &b.stmts {
                walk_stmt(s, seen);
            }
        }
        fn walk_stmt(s: &Stmt, seen: &mut std::collections::HashSet<u32>) {
            match s {
                Stmt::Decl { init, .. } => {
                    if let Some(e) = init {
                        walk(e, seen)
                    }
                }
                Stmt::Expr(e) => walk(e, seen),
                Stmt::If {
                    cond,
                    then,
                    otherwise,
                    ..
                } => {
                    walk(cond, seen);
                    walk_block(then, seen);
                    if let Some(b) = otherwise {
                        walk_block(b, seen);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    walk(cond, seen);
                    walk_block(body, seen);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    if let Some(s) = init {
                        walk_stmt(s, seen);
                    }
                    if let Some(e) = cond {
                        walk(e, seen);
                    }
                    if let Some(e) = step {
                        walk(e, seen);
                    }
                    walk_block(body, seen);
                }
                Stmt::Return { value, .. } => {
                    if let Some(e) = value {
                        walk(e, seen)
                    }
                }
                Stmt::Break(_) | Stmt::Continue(_) => {}
                Stmt::Block(b) => walk_block(b, seen),
            }
        }
        for f in &p.functions {
            walk_block(&f.body, &mut seen);
        }
    }

    #[test]
    fn error_reports_location() {
        let err = parse("void main() { int ; }").unwrap_err();
        assert!(err.to_string().contains("expected identifier"));
    }

    #[test]
    fn nesting_past_the_cap_stops_at_the_cap() {
        let src = format!(
            "int f(int n) {{ return {}n{}; }}",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let err = parse(&src).unwrap_err();
        assert_eq!(err.phase(), crate::Phase::Parse);
        assert!(err.message().contains("nesting deeper than 64"), "{err}");
        // Mixed constructs share the one counter.
        let mixed = format!(
            "void main(int n) {{ {}output({}n{}); {} }}",
            "{".repeat(40),
            "(".repeat(40),
            ")".repeat(40),
            "}".repeat(40)
        );
        assert_eq!(parse(&mixed).unwrap_err().phase(), crate::Phase::Parse);
    }

    #[test]
    fn dangling_else_binds_inner() {
        let src = "void main(int a, int b) { if (a) if (b) output(1); else output(2); }";
        let p = parse(src).unwrap();
        let Stmt::If {
            otherwise, then, ..
        } = &p.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(otherwise.is_none(), "outer if must have no else");
        let Stmt::If {
            otherwise: inner_else,
            ..
        } = &then.stmts[0]
        else {
            panic!()
        };
        assert!(inner_else.is_some());
    }
}
